"""Who owns the model a synthesis cycle promotes.

A model decoded from the wire (``Platform.run_model_doc``: the cluster
worker backend and ``apply_entry``) is held by no caller, so the
dispatcher adopts it as the runtime model: one decode, one validation
and no copy per cycle.  A model handed in by a caller is copied, as
before.  Neither path may let an edit reach the runtime model.
"""

from __future__ import annotations

import sys

import pytest

from repro.domains.assembly import domain_cases
from repro.middleware.cluster import RegistryBackend
from repro.middleware.loader import load_platform
from repro.middleware.platform import apply_entry
from repro.middleware.synthesis.engine import SynthesisError
from repro.modeling import serialize
from repro.modeling.constraints import ConstraintRegistry
from repro.modeling.serialize import clone_model, model_to_dict
from repro.runtime.events import Event

CASES = {case.name: case for case in domain_cases()}


def _platform(domain: str):
    case = CASES[domain]
    service = case.service()
    platform = load_platform(case.middleware(), case.knowledge(service))
    context = dict(getattr(case, "context", {}) or {})
    if context:
        platform.controller.context.update(context)
    return platform.start(), service


def _objects(model) -> set[int]:
    return {id(obj) for obj in model.walk()}


def _script(result) -> list[tuple]:
    return [
        (command.operation, sorted(command.args.items()), command.target)
        for command in result.script
    ]


class TestInProcessCopies:
    def test_edit_in_place_and_resubmit_matches_fresh_models(self):
        """The caller keeps its model: editing it in place and submitting
        it again diffs against the copy promoted the first time, exactly
        as two separately built models would."""
        edited, edited_service = _platform("microgrid")
        golden, golden_service = _platform("microgrid")
        model = CASES["microgrid"].phase1()

        golden.run_model(clone_model(model))
        edited.run_model(model)
        heater = next(
            obj for obj in model.objects_by_class("DeviceSpec")
            if obj.get("deviceId") == "heater"
        )
        heater.set("mode", "off")
        model.roots[0].get("devices").append(
            model.create("DeviceSpec", deviceId="cooler", kind="load",
                         powerRating=150.0, mode="on")
        )
        expected = golden.run_model(clone_model(model))
        result = edited.run_model(model)

        assert not result.changes.empty
        assert [str(c) for c in result.changes] == [
            str(c) for c in expected.changes
        ]
        assert _script(result) == _script(expected)
        assert edited_service.op_log == golden_service.op_log
        runtime = edited.synthesis.dispatcher.runtime_model
        assert runtime is not model
        assert not _objects(runtime) & _objects(model)


class TestWireAdoption:
    def test_workspace_edit_leaves_runtime_model_unchanged(self):
        backend = RegistryBackend()
        backend.open("s1", {"domain": "communication"})
        case = CASES["communication"]
        backend.apply("s1", {"op": "run_model",
                             "model": model_to_dict(case.phase1())})
        platform = backend.sessions["s1"].platform
        runtime = platform.synthesis.dispatcher.runtime_model
        before = model_to_dict(runtime)

        mine = platform.ui.get_model(runtime.name)
        assert mine is not runtime
        mine.roots[0].get("persons")[0].set("name", "mallory")
        assert platform.ui.get_model(runtime.name) is mine
        assert platform.synthesis.dispatcher.runtime_model is runtime
        assert model_to_dict(runtime) == before

    def test_pool_result_does_not_alias_runtime_model(self):
        platform, _service = _platform("smartspace")
        doc = {"op": "run_model",
               "model": model_to_dict(CASES["smartspace"].phase1())}
        result = apply_entry(platform, Event(topic="entry", payload=doc))
        runtime = platform.synthesis.dispatcher.runtime_model
        before = model_to_dict(runtime)
        assert not result.no_op
        accepted = result.accepted_model
        assert accepted is not runtime
        assert not _objects(accepted) & _objects(runtime)
        assert model_to_dict(accepted) == before
        assert result.accepted_model is accepted  # copied once
        # the change entries point into the copy, not the runtime model
        touched = {id(c.new_object) for c in result.changes if c.new_object}
        assert touched and touched <= _objects(accepted)
        for change in result.changes:
            if change.kind == "add" and change.new_object.meta.find_feature(
                    "name") is not None:
                change.new_object.set("name", "edited")
        assert platform.synthesis.dispatcher.runtime_model is runtime
        assert model_to_dict(runtime) == before

    def test_rejected_wire_model_is_not_left_adoptable(self):
        platform, _service = _platform("microgrid")
        bad = CASES["microgrid"].phase1()
        bad.roots[0].unset("name")
        with pytest.raises(ValueError, match="validation failed"):
            platform.run_model_doc(model_to_dict(bad))
        assert platform.synthesis.dispatcher.runtime_model is None
        assert platform.synthesis.rejected == 0
        # A caller resubmitting the workspace's entry still gets a copy.
        stored = platform.ui.get_model(bad.name)
        stored.roots[0].set("name", "home")
        result = platform.ui.submit(stored)
        assert platform.synthesis.dispatcher.runtime_model is not stored
        assert result.accepted_model is stored

    def test_uiless_rejection_counts_in_synthesis(self):
        platform, _service = _platform("crowdsensing")
        bad = CASES["crowdsensing"].phase1()
        bad.roots[0].get("queries")[0].set("minBattery", 150.0)
        with pytest.raises(SynthesisError, match="1 validation error"):
            platform.run_model_doc(model_to_dict(bad))
        assert platform.synthesis.rejected == 1
        assert platform.synthesis.dispatcher.runtime_model is None


@pytest.mark.parametrize("domain", sorted(CASES))
def test_wire_step_budget(monkeypatch, domain):
    """One cluster-backend ``run_model`` step: one decode, no copy, one
    validation pass, with or without a UI layer in front of synthesis."""
    backend = RegistryBackend()
    backend.open("s1", {"domain": domain})
    case = CASES[domain]
    docs = [model_to_dict(case.phase1()), model_to_dict(case.phase2())]
    backend.apply("s1", {"op": "run_model", "model": docs[0]})
    assert (backend.sessions["s1"].platform.ui is None) == (
        domain == "crowdsensing")

    counts = {"decode": 0, "clone": 0, "validate": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(serialize, "model_from_dict",
                        counting("decode", serialize.model_from_dict))
    original_clone = serialize.clone_model
    clone = counting("clone", original_clone)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "clone_model", None) is original_clone
        ):
            monkeypatch.setattr(module, "clone_model", clone)
    monkeypatch.setattr(ConstraintRegistry, "validate",
                        counting("validate", ConstraintRegistry.validate))

    result = backend.apply("s1", {"op": "run_model", "model": docs[1]})
    assert result == {"ran": case.phase2().name}
    assert counts == {"decode": 1, "clone": 0, "validate": 1}
