"""Cross-domain integration: the paper's portability claim.

Sec. VII-B: "To test the Controller layer's ability to separate
concerns, we focused on its execution engine (the domain-independent
aspect) to operate with DSCs and procedures from both domains without
modification."

These tests run the *same* engine classes over the communication and
microgrid DSKs — and even a merged two-domain deployment — asserting
zero engine specialization is needed.
"""

import pytest

from repro.domains.communication import build_cvm
from repro.domains.communication.cml import CmlBuilder
from repro.domains.crowdsensing import CSVM, QueryBuilder
from repro.domains.microgrid import MGridBuilder, build_mgridvm
from repro.domains.smartspace import SpaceBuilder, TwoSVM
from repro.middleware.controller.dsc import DSCTaxonomy
from repro.middleware.controller.intent import IntentModelGenerator
from repro.middleware.controller.layer import ControllerLayer
from repro.middleware.controller.policy import PolicyEngine
from repro.middleware.controller.procedure import ProcedureRepository
from repro.middleware.synthesis.scripts import Command
from repro.sim.fleet import DeviceFleet
from repro.sim.network import CommService
from repro.sim.plant import PlantController


def test_same_engine_classes_run_all_four_domains():
    """Every domain platform instantiates the same layer classes."""
    comm = build_cvm(service=CommService("net0", op_cost=0.0))
    grid = build_mgridvm(plant=PlantController("plant0", op_cost=0.0))
    space = TwoSVM(["node0"])
    sensing = CSVM(fleet=DeviceFleet("fleet0", op_cost=0.0))
    controllers = [
        comm.controller,
        grid.controller,
        space.nodes["node0"].controller,
        sensing.platform.controller,
    ]
    assert all(type(c) is ControllerLayer for c in controllers)
    assert all(
        type(c.generator) is IntentModelGenerator for c in controllers
    )
    comm.stop(); grid.stop(); space.stop(); sensing.stop()


def test_merged_taxonomy_controller_serves_both_domains():
    """One Controller with the union of two domains' DSKs executes
    commands from both (multi-domain deployment)."""
    from repro.domains.communication import dsk as comm_dsk
    from repro.domains.microgrid import dsk as grid_dsk

    taxonomy = DSCTaxonomy("multi")
    # install both domains' classifiers into one taxonomy
    for specs in (comm_dsk.dsc_specs(), grid_dsk.dsc_specs()):
        for spec in specs:
            taxonomy.define(
                spec["name"],
                kind=spec.get("kind", "operation"),
                parent=spec.get("parent"),
                constraints=spec.get("constraints"),
            )
    repository = ProcedureRepository(taxonomy)

    from repro.middleware.controller.procedure import Procedure

    def install(specs):
        for spec in specs:
            procedure = Procedure(
                spec["name"], spec["classifier"],
                dependencies=spec.get("dependencies", ()),
                attributes=spec.get("attributes"),
            )
            for unit_name, instructions in spec.get("units", {}).items():
                unit = procedure.unit(unit_name)
                for opcode, operands in instructions:
                    unit.add(opcode, **operands)
            repository.add(procedure)

    install(comm_dsk.procedure_specs())
    install(grid_dsk.procedure_specs())
    assert repository.check_closure() == []

    class UnionBroker:
        """Routes ncb.* and mhb.* calls to the respective services."""

        def __init__(self):
            self.net = CommService("net0", op_cost=0.0)
            self.plant = PlantController("plant0", op_cost=0.0)
            self.sessions = {}

        def call_api(self, api, **args):
            if api == "ncb.open_session":
                session = self.net.invoke(
                    "open_session", initiator=args["connection"]
                )
                self.sessions[args["connection"]] = session
                return session
            if api == "ncb.log":
                return True
            if api == "mhb.register":
                return self.plant.invoke(
                    "register_device", device=args["device"],
                    kind=args["kind"], power_rating=args["rating"],
                    priority=args["priority"],
                )
            raise AssertionError(f"unexpected api {api}")

    broker = UnionBroker()
    controller = ControllerLayer(
        "multi", taxonomy=taxonomy, repository=repository
    )
    controller.configure({"default_case": "intent"})
    for pattern, classifier in {**comm_dsk.classifier_map(),
                                **grid_dsk.classifier_map()}.items():
        controller.classifier_map[pattern] = classifier
    controller.wire("broker", broker)
    controller.start()

    comm_outcome = controller.execute_command(
        Command("comm.session.establish", args={"connection": "c1"})
    )
    grid_outcome = controller.execute_command(
        Command("grid.device.register",
                args={"device": "d1", "kind": "load",
                      "rating": 100.0, "priority": 1})
    )
    assert comm_outcome.ok and comm_outcome.case == "intent"
    assert grid_outcome.ok and grid_outcome.case == "intent"
    assert "c1" in broker.sessions
    assert "d1" in broker.plant.devices
    controller.stop()


def test_all_four_domains_run_concurrently():
    """Four platforms in one process: no shared-state interference."""
    comm_service = CommService("net0", op_cost=0.0)
    plant = PlantController("plant0", grid_import_limit=500.0, op_cost=0.0)
    fleet = DeviceFleet("fleet0", op_cost=0.0)
    for i in range(3):
        fleet.op_register_device(f"d{i}")

    comm = build_cvm(service=comm_service)
    grid = build_mgridvm(plant=plant)
    space = TwoSVM(["node0"])
    sensing = CSVM(fleet=fleet)

    # communication
    cb = CmlBuilder("chat")
    a = cb.person("a", role="initiator")
    b = cb.person("b")
    cb.connection("c", [a, b], media=["text"])
    comm.run_model(cb.build())

    # microgrid
    gb = MGridBuilder("home", grid_import_limit=500.0)
    gb.device("heater", "load", 300.0, mode="on")
    grid.run_model(gb.build())

    # smart space
    sb = SpaceBuilder("lab")
    sb.smart_object("lamp", settings={"light": 0})
    space.run_model(sb.build())

    # crowdsensing
    qb = QueryBuilder("air")
    query = qb.query("t", "temperature")
    sensing.submit_model(qb.build())

    assert len(comm_service.sessions) == 1
    assert plant.devices["heater"].mode == "on"
    assert "lamp" in space.spaces["node0"].objects
    assert isinstance(sensing.collect(query), float)

    comm.stop(); grid.stop(); space.stop(); sensing.stop()


def test_domain_metamodels_share_nothing_with_middleware_engine():
    """DSK/MoE separation enforced by imports: repro.middleware never
    imports repro.domains (checked over the actual module sources)."""
    import pathlib

    import repro.middleware

    import ast

    package_dir = pathlib.Path(repro.middleware.__file__).parent
    offenders = []
    for path in package_dir.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if module.startswith(("repro.domains", "repro.sim")):
                    offenders.append(f"{path}: {module}")
    assert offenders == []


def test_production_packages_do_not_import_the_benchmarks():
    """Layering: the middleware, runtime, modeling kernel and domain
    packages never reach into :mod:`repro.bench` — neither by an import
    statement nor by naming a bench module in a string (an
    ``importlib`` or ``"module:attr"`` spec).  Benchmarks depend on the
    product, not the other way round."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in ("middleware", "runtime", "modeling", "domains"):
        for path in (root / package).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    modules = node.value.split()
                else:
                    continue
                for module in modules:
                    if module == "repro.bench" or module.startswith(
                            ("repro.bench.", "repro.bench:")):
                        offenders.append(
                            f"{path.relative_to(root)}:{node.lineno}: "
                            f"{module}")
    assert offenders == []
