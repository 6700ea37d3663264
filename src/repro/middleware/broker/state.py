"""State management: the layer's runtime model.

Paper Sec. V-A: the Broker metamodel includes "state management (to
store and manipulate the layer's runtime model)".  The runtime model
has two parts:

* a *variable store* — flat key/value state with snapshot/restore
  (used by actions and the autonomic manager's monitored metrics), and
* an optional *model slot* — an :class:`~repro.modeling.model.Model`
  instance representing the layer's structured runtime model, enabling
  the models@runtime reflection path (Sec. III).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import model_from_dict, model_to_dict

__all__ = ["StateError", "StateManager"]


class StateError(Exception):
    """Raised on invalid snapshot/restore operations."""


class StateManager:
    """Key/value runtime state with snapshots plus a structured model slot."""

    def __init__(self, *, name: str = "state") -> None:
        self.name = name
        self._values: dict[str, Any] = {}
        self._snapshots: list[dict[str, Any]] = []
        self._model: Model | None = None
        self._watchers: list[Callable[[str, Any, Any], None]] = []

    # -- variable store -----------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def set(self, key: str, value: Any) -> None:
        old = self._values.get(key)
        if key in self._values and old == value:
            return  # no change: watchers stay quiet (loop hygiene)
        self._values[key] = value
        for watcher in list(self._watchers):
            watcher(key, old, value)

    def update(self, values: Mapping[str, Any]) -> None:
        for key, value in values.items():
            self.set(key, value)

    def delete(self, key: str) -> None:
        if key in self._values:
            old = self._values.pop(key)
            for watcher in list(self._watchers):
                watcher(key, old, None)

    def increment(self, key: str, delta: float = 1) -> Any:
        value = self._values.get(key, 0) + delta
        self.set(key, value)
        return value

    def keys(self) -> list[str]:
        return sorted(self._values)

    def watch(self, callback: Callable[[str, Any, Any], None]) -> None:
        self._watchers.append(callback)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    # -- snapshots (failure recovery) ------------------------------------------

    def snapshot(self) -> int:
        """Push a snapshot; returns its index."""
        self._snapshots.append(dict(self._values))
        return len(self._snapshots) - 1

    def restore(self, index: int | None = None) -> None:
        """Restore the given (default: latest) snapshot, popping it and
        any later ones."""
        if not self._snapshots:
            raise StateError(f"state {self.name!r}: no snapshot to restore")
        if index is None:
            index = len(self._snapshots) - 1
        elif isinstance(index, bool) or not isinstance(index, int):
            raise StateError(
                f"state {self.name!r}: snapshot index must be an integer, "
                f"got {index!r}"
            )
        if index < 0:
            raise StateError(
                f"state {self.name!r}: snapshot index {index} is negative "
                f"(indices count up from 0; latest is "
                f"{len(self._snapshots) - 1})"
            )
        if index >= len(self._snapshots):
            raise StateError(
                f"state {self.name!r}: no snapshot {index} "
                f"(only {len(self._snapshots)} on the stack)"
            )
        restored = self._snapshots[index]
        del self._snapshots[index:]
        old = self._values
        self._values = dict(restored)
        for key in set(old) | set(self._values):
            if old.get(key) != self._values.get(key):
                for watcher in list(self._watchers):
                    watcher(key, old.get(key), self._values.get(key))

    def drop_snapshot(self) -> None:
        """Discard the latest snapshot (commit point reached)."""
        if not self._snapshots:
            raise StateError(f"state {self.name!r}: no snapshot to drop")
        self._snapshots.pop()

    @property
    def snapshot_count(self) -> int:
        return len(self._snapshots)

    # -- structured runtime model -------------------------------------------------

    @property
    def runtime_model(self) -> Model | None:
        return self._model

    def install_model(self, model: Model) -> None:
        self._model = model

    # -- externalization (PR 5) -------------------------------------------------

    def externalize(self) -> dict[str, Any]:
        """Capture values, the snapshot stack, and the model slot."""
        doc: dict[str, Any] = {
            "values": {key: self._values[key] for key in sorted(self._values)},
            "snapshots": [
                {key: snap[key] for key in sorted(snap)}
                for snap in self._snapshots
            ],
        }
        doc["model"] = model_to_dict(self._model) if self._model else None
        return doc

    def restore_external(
        self,
        doc: Mapping[str, Any],
        *,
        metamodel: Metamodel | None = None,
    ) -> None:
        """Apply an externalized document.

        Quiet by design: watchers are *not* notified — the effects the
        source session's watchers produced have already happened, and
        replaying them here (e.g. autonomic symptom evaluation) would
        diverge the restored session from the original.

        ``metamodel`` is needed only when the document carries a model
        slot; the model is rebuilt in this manager's own space.
        """
        self._values = dict(doc.get("values", {}))
        self._snapshots = [dict(snap) for snap in doc.get("snapshots", [])]
        model_doc = doc.get("model")
        if model_doc is not None:
            if metamodel is None:
                raise StateError(
                    f"state {self.name!r}: document carries a runtime model "
                    f"but no metamodel was provided to rebuild it"
                )
            self._model = model_from_dict(model_doc, metamodel)

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (
            f"StateManager({self.name!r}, keys={len(self._values)}, "
            f"snapshots={len(self._snapshots)})"
        )
