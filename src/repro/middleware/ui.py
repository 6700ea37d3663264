"""UI layer: the user's model workspace.

Paper Sec. III: "the User Interface layer provides a language
environment for users to specify application models."  The original
platforms leverage EMF/GMF-generated editors; here the workspace
provides the equivalent programmatic environment:

* holds named user models (conforming to the domain DSML metamodel),
* supports *checkout / edit / submit* cycles: checkout clones the
  current runtime model so the user edits a private copy (the
  models@runtime loop),
* accepts textual models through pluggable parser callbacks (each
  domain may register a concrete syntax),
* receives runtime-model updates from the Synthesis dispatcher.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.modeling.constraints import ConstraintRegistry, ValidationReport
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import (
    clone_model,
    model_from_dict,
    model_from_json,
    model_to_dict,
)
from repro.modeling.weave import WeaveResult, weave_models
from repro.runtime.component import Component

__all__ = ["UIError", "ModelWorkspace"]


class UIError(Exception):
    """Raised on workspace misuse (unknown models, missing parser)."""


class ModelWorkspace(Component):
    """The user-facing language environment for one DSML."""

    required_ports = ("synthesis",)

    def __init__(
        self,
        name: str = "ui",
        *,
        metamodel: Metamodel,
        constraints: ConstraintRegistry | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        self.metamodel = metamodel
        self.constraints = constraints if constraints is not None else ConstraintRegistry()
        self._models: dict[str, Model] = {}
        self._parser: Callable[[str], Model] | None = None
        self._runtime_view: Model | None = None
        self.submissions = 0

    # -- lifecycle --------------------------------------------------------

    def on_start(self) -> None:
        synthesis = self.port("synthesis")
        synthesis.dispatcher.on_model_update(self._on_runtime_update)

    # -- model management ----------------------------------------------------

    def new_model(self, name: str) -> Model:
        """Create an empty user model in the workspace."""
        if name in self._models:
            raise UIError(f"workspace already has a model named {name!r}")
        model = Model(self.metamodel, name=name)
        self._models[name] = model
        return model

    def put_model(self, model: Model) -> Model:
        """Adopt an externally built model into the workspace."""
        if model.metamodel is not self.metamodel:
            raise UIError(
                f"model conforms to {model.metamodel.name!r}, workspace "
                f"expects {self.metamodel.name!r}"
            )
        self._models[model.name] = model
        return model

    def get_model(self, name: str) -> Model:
        model = self._models.get(name)
        if model is None:
            raise UIError(f"no model named {name!r} in the workspace")
        if model is self._runtime_view:
            # The dispatcher adopted this very object (a model the
            # platform decoded from the wire): from here on the
            # workspace edits its own copy, never the runtime model.
            model = self._models[name] = clone_model(model)
        return model

    def model_names(self) -> list[str]:
        return sorted(self._models)

    def checkout(self, name: str | None = None) -> Model:
        """A private editable copy of a workspace model, or of the
        current runtime model when ``name`` is None."""
        if name is not None:
            return clone_model(self.get_model(name))
        if self._runtime_view is None:
            raise UIError("no runtime model to check out yet")
        return clone_model(self._runtime_view)

    # -- textual syntax --------------------------------------------------------

    def set_parser(self, parser: Callable[[str], Model]) -> None:
        self._parser = parser

    def parse(self, text: str, *, name: str | None = None) -> Model:
        """Parse a textual model using the registered domain syntax."""
        if self._parser is not None:
            model = self._parser(text)
        else:
            # Default concrete syntax: the kernel's JSON documents.
            model = model_from_json(text, self.metamodel)
        if name:
            model.name = name
        return self.put_model(model)

    # -- validation & submission --------------------------------------------------

    def validate(self, model: Model) -> ValidationReport:
        return self.constraints.validate(model)

    def submit(self, model: Model | str, **context: Any) -> Any:
        """Submit a model to the Synthesis layer; returns its result.

        The workspace validates first so users get model-level
        diagnostics before synthesis begins; a synthesis layer checking
        the same registry reuses that report instead of validating again.
        """
        self.require_running()
        if isinstance(model, str):
            model = self.get_model(model)
        report = self.validate(model)
        report.raise_if_invalid()
        self.submissions += 1
        synthesis = self.port("synthesis")
        return synthesis.synthesize(
            model,
            context=context or None,
            report=report if synthesis.constraints is self.constraints else None,
        )

    def submit_woven(
        self,
        base: Model | str,
        *aspects: Model | str,
        strict: bool = False,
        **context: Any,
    ) -> tuple[WeaveResult, Any]:
        """Weave several concern models and submit the composition.

        Realizes the paper's aspect-oriented execution goal (Sec. IX):
        "simultaneously executing (through a weaving step) multiple
        related models that describe the different concerns of an
        application."  Returns (weave result, synthesis result).
        """
        base_model = self.get_model(base) if isinstance(base, str) else base
        aspect_models = [
            self.get_model(a) if isinstance(a, str) else a for a in aspects
        ]
        woven = weave_models(
            base_model, *aspect_models,
            name=f"{base_model.name}+{len(aspect_models)}aspects",
            strict=strict,
        )
        self.put_model(woven.model)
        return woven, self.submit(woven.model, **context)

    # -- externalization (PR 5) ----------------------------------------------------

    def externalize(self) -> dict[str, Any]:
        """Capture the user's workspace models and the submit counter.

        The runtime view is *not* captured here: it is re-announced by
        the synthesis dispatcher when its restored runtime model is
        installed, so serializing it twice would only invite skew.
        """
        return {
            "models": {
                name: model_to_dict(self._models[name])
                for name in sorted(self._models)
            },
            "submissions": self.submissions,
        }

    def restore_external(self, doc: dict[str, Any]) -> None:
        for name, model_doc in doc.get("models", {}).items():
            self._models[name] = model_from_dict(model_doc, self.metamodel)
        self.submissions = int(doc.get("submissions", 0))

    # -- runtime view ------------------------------------------------------------------

    @property
    def runtime_view(self) -> Model | None:
        """Read-only view of the model currently in execution."""
        return self._runtime_view

    def _on_runtime_update(self, model: Model) -> None:
        self._runtime_view = model
