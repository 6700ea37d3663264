"""The dispatcher component of the Synthesis layer.

Paper Sec. V-A: "(3) dispatcher — dispatches a new runtime model to the
UI and updates the currently executing model."

The dispatcher owns the *runtime model* (the model currently in
execution).  After a synthesis cycle it promotes the accepted user
model to runtime model and notifies UI-layer listeners.  A model a
caller still holds (the in-process ``run_model`` API, examples, tests)
is copied, so later user edits don't mutate the runtime model.  A model
handed over with :meth:`Dispatcher.adopting` — one the platform decoded
from the wire, which no caller holds — is installed as it is.

Promotion is serialized behind a mutex: under the sharded runtime a
dispatcher may be promoted to from one shard thread while a merged
monitoring view (or a bridge on another shard) reads
``runtime_model`` — the install/count pair must be atomic so readers
never observe a half-promoted state or a torn dispatch count.
Listeners are invoked *outside* the lock, against the snapshot they
were notified for, so a slow listener cannot stall other shards.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.modeling.model import Model
from repro.modeling.serialize import clone_model

__all__ = ["Dispatcher"]


class Dispatcher:
    """Runtime-model ownership and UI notification."""

    def __init__(self) -> None:
        self._runtime_model: Model | None = None
        self._listeners: list[Callable[[Model], None]] = []
        self._lock = threading.Lock()
        self._adoptable: Model | None = None
        self.dispatches = 0

    @property
    def runtime_model(self) -> Model | None:
        return self._runtime_model

    def on_model_update(self, listener: Callable[[Model], None]) -> None:
        """Register a UI-layer listener for runtime-model updates."""
        with self._lock:
            self._listeners.append(listener)

    @contextmanager
    def adopting(self, model: Model) -> Iterator[None]:
        """Within the block, promoting ``model`` itself installs it
        without a copy: the caller hands over a model no one else holds."""
        self._adoptable = model
        try:
            yield
        finally:
            self._adoptable = None

    def promote(self, accepted: Model) -> Model:
        """Install ``accepted`` (or a copy, unless it was handed over
        with :meth:`adopting`) as the new runtime model and notify."""
        promoted = (
            accepted if accepted is self._adoptable else clone_model(accepted)
        )
        with self._lock:
            self._runtime_model = promoted
            self.dispatches += 1
            listeners = list(self._listeners)
        for listener in listeners:
            listener(promoted)
        return promoted

    def clear(self) -> None:
        """Drop the runtime model (system reset)."""
        with self._lock:
            self._runtime_model = None

    def install(self, model: Model | None, *, dispatches: int | None = None) -> None:
        """Install a restored runtime model without counting a dispatch.

        Used by session restore (PR 5): the model was already promoted
        once in the source session, so only the listener notification is
        replayed — the UI's runtime view must track the restored model.
        """
        with self._lock:
            self._runtime_model = model
            if dispatches is not None:
                self.dispatches = dispatches
            listeners = list(self._listeners)
        if model is not None:
            for listener in listeners:
                listener(model)
