"""Benchmark workloads.

The centerpiece is the paper's E1/E5 workload: "a set of eight
scenarios for multimedia communication, including session
establishment, reconfiguration and recovery from failures, were
implemented using both versions of the Broker layer" (Sec. VII-A).

Each scenario is a sequence of steps over the NCB API surface; steps
are tagged tuples:

* ``("api", api_name, args)`` — one Broker API call,
* ``("fail", connection)`` — inject a session failure at the service,
* ``("recover", connection)`` — recover the failed session.

Scenarios use symbolic connection/medium ids, so the same scenario
replays identically against the model-based and handcrafted Brokers.

The four shipped domains share one two-phase session workload:
:func:`_phases` alternates a domain's phase-1 and phase-2 models, and
:func:`golden_logs` records the op_log of running them uninterrupted,
the reference every interrupted run (recovery, worker moves, generated
vs reference dispatch) must reproduce byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.domains.assembly import DomainCase

__all__ = [
    "Step",
    "COMMUNICATION_SCENARIOS",
    "scenario_names",
    "adaptation_wiring",
    "adaptation_wiring_reliable",
    "golden_logs",
]

Step = tuple  # ("api", name, args) | ("fail", conn) | ("recover", conn)


def _api(name: str, **args: Any) -> Step:
    return ("api", name, args)


def _session_setup(conn: str, parties: int) -> list[Step]:
    steps = [_api("ncb.open_session", connection=conn)]
    steps += [
        _api("ncb.add_party", connection=conn, party=f"{conn}-p{i}")
        for i in range(parties)
    ]
    return steps


#: The eight multimedia-communication scenarios of Sec. VII-A.
COMMUNICATION_SCENARIOS: dict[str, list[Step]] = {
    # 1. Plain two-party audio call.
    "basic-session": [
        *_session_setup("c1", 2),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.close_stream", connection="c1", medium="m1"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 2. Conference establishment: five parties, audio + video.
    "conference-setup": [
        *_session_setup("c1", 5),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.open_stream", connection="c1", medium="m2",
             kind="video", quality="high"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 3. Party churn during a running session.
    "party-churn": [
        *_session_setup("c1", 3),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.remove_party", connection="c1", party="c1-p1"),
        _api("ncb.remove_party", connection="c1", party="c1-p2"),
        _api("ncb.add_party", connection="c1", party="c1-late"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 4. Media reconfiguration (QoS changes on a live stream).
    "media-reconfiguration": [
        *_session_setup("c1", 2),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="video", quality="standard"),
        _api("ncb.reconfigure_stream", connection="c1", medium="m1",
             quality="high"),
        _api("ncb.reconfigure_stream", connection="c1", medium="m1",
             quality="low"),
        _api("ncb.reconfigure_stream", connection="c1", medium="m1",
             quality="standard"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 5. Stream lifecycle churn: media added/dropped repeatedly.
    "stream-lifecycle": [
        *_session_setup("c1", 2),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.open_stream", connection="c1", medium="m2",
             kind="text", quality="low"),
        _api("ncb.close_stream", connection="c1", medium="m2"),
        _api("ncb.open_stream", connection="c1", medium="m3",
             kind="file", quality="standard"),
        _api("ncb.close_stream", connection="c1", medium="m1"),
        _api("ncb.close_stream", connection="c1", medium="m3"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 6. Failure and recovery mid-session.
    "failure-recovery": [
        *_session_setup("c1", 3),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        ("fail", "c1"),
        ("recover", "c1"),
        _api("ncb.add_party", connection="c1", party="c1-after"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 7. Full setup followed by complete teardown.
    "setup-teardown": [
        *_session_setup("c1", 4),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.open_stream", connection="c1", medium="m2",
             kind="video", quality="high"),
        _api("ncb.close_stream", connection="c1", medium="m2"),
        _api("ncb.close_stream", connection="c1", medium="m1"),
        _api("ncb.close_session", connection="c1"),
    ],
    # 8. Two concurrent sessions with independent media.
    "multi-session": [
        *_session_setup("c1", 2),
        *_session_setup("c2", 3),
        _api("ncb.open_stream", connection="c1", medium="m1",
             kind="audio", quality="standard"),
        _api("ncb.open_stream", connection="c2", medium="m2",
             kind="video", quality="standard"),
        _api("ncb.reconfigure_stream", connection="c2", medium="m2",
             quality="high"),
        _api("ncb.close_session", connection="c1"),
        _api("ncb.close_session", connection="c2"),
    ],
}


def scenario_names() -> list[str]:
    return list(COMMUNICATION_SCENARIOS)


# ---------------------------------------------------------------------------
# E3: adaptation workload wiring for the non-adaptive baseline
# ---------------------------------------------------------------------------

def adaptation_wiring() -> dict[str, list[tuple[str, dict[str, str]]]]:
    """Initial wiring of the non-adaptive controller: the *fast*
    transport path, wired for every communication operation."""
    return {
        "comm.session.establish": [
            ("ncb.open_session", {"connection": "connection"}),
        ],
        "comm.session.teardown": [
            ("ncb.close_session", {"connection": "connection"}),
        ],
        "comm.party.add": [
            ("ncb.add_party", {"connection": "connection", "party": "party"}),
        ],
        "comm.party.remove": [
            ("ncb.remove_party", {"connection": "connection", "party": "party"}),
        ],
        "comm.stream.open": [
            ("ncb.open_stream", {"connection": "connection", "medium": "medium",
                                 "kind": "kind", "quality": "quality"}),
        ],
        "comm.stream.close": [
            ("ncb.close_stream", {"connection": "connection", "medium": "medium"}),
        ],
        "comm.stream.reconfigure": [
            ("ncb.reconfigure_stream", {"connection": "connection",
                                        "medium": "medium",
                                        "quality": "quality"}),
        ],
    }


def adaptation_wiring_reliable() -> dict[str, list[tuple[str, dict[str, str]]]]:
    """Re-wiring required after the environment degrades: the reliable
    transport path (probe before opening streams)."""
    wiring = adaptation_wiring()
    wiring["comm.stream.open"] = [
        ("ncb.probe", {}),
        ("ncb.open_stream", {"connection": "connection", "medium": "medium",
                             "kind": "kind", "quality": "quality"}),
    ]
    return wiring


# -- domain sessions ----------------------------------------------------------


def _fresh_session(case: DomainCase) -> tuple[Any, Any, Any]:
    """(service, dsk, started platform) for one session of ``case``."""
    from repro.middleware.loader import load_platform

    service = case.service()
    dsk = case.knowledge(service)
    platform = load_platform(case.middleware(), dsk)
    if platform.controller is not None and case.context:
        platform.controller.context.update(case.context)
    return service, dsk, platform


def _log_bytes(service: Any) -> bytes:
    return "\n".join(service.op_log).encode("utf-8")


def _phases(case: DomainCase, steps: int) -> list[Any]:
    """``steps`` session steps: the two phase models, alternating."""
    models = [case.phase1(), case.phase2()]
    return [models[i % 2] for i in range(steps)]


def golden_logs(cases: list[DomainCase], steps: int = 2) -> dict[str, bytes]:
    """Uninterrupted runs of :func:`_phases`: the per-domain golden
    op_logs."""
    golden: dict[str, bytes] = {}
    for case in cases:
        service, _dsk, platform = _fresh_session(case)
        try:
            for model in _phases(case, steps):
                platform.run_model(model)
        finally:
            platform.stop()
        golden[case.name] = _log_bytes(service)
        if not golden[case.name]:
            raise RuntimeError(
                f"domain {case.name!r} produced an empty op_log; the "
                f"workload exercises nothing"
            )
    return golden
