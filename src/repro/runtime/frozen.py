"""Frozen-training configurations (section 7.3).

During different training phases specific modules are frozen to stabilize
the loss. A frozen module:

* still runs its full forward pass;
* computes input gradients (dX-only backward, ~1x forward cost) **only
  if a trainable module sits upstream of it** (gradients must flow
  through on their way back);
* never computes weight gradients and never participates in the
  optimizer step or gradient synchronization.

The projectors are always trainable — which is why a fully frozen model
("training projectors only") still needs gradients relayed through the
generator and LLM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.mllm import MODULE_NAMES


@dataclass(frozen=True)
class FrozenConfig:
    """Which modules train during this phase.

    Attributes:
        train_encoder / train_llm / train_generator: Module train flags.
        train_projectors: Projectors train in every phase the paper
            evaluates.
    """

    train_encoder: bool = True
    train_llm: bool = True
    train_generator: bool = True
    train_projectors: bool = True

    def trains(self, module_name: str) -> bool:
        table = {
            "encoder": self.train_encoder,
            "llm": self.train_llm,
            "generator": self.train_generator,
        }
        if module_name not in table:
            raise KeyError(f"unknown module {module_name!r}")
        return table[module_name]

    # ------------------------------------------------------------------ #
    # Backward-pass requirements
    # ------------------------------------------------------------------ #
    def needs_backward(self, module_name: str) -> bool:
        """Whether the module runs any backward pass at all.

        Pipeline order is encoder -> llm -> generator; gradients flow
        generator -> llm -> encoder, originating at the loss behind the
        generator (and the LM head inside the LLM). A module needs a
        backward pass iff it trains, or something upstream of it trains
        and a loss exists at-or-behind this module.

        With always-trainable projectors, the input projector (co-located
        with the encoder boundary) guarantees the LLM and generator must
        relay gradients; the encoder itself can skip backward entirely
        when frozen.
        """
        if self.trains(module_name):
            return True
        if module_name == "encoder":
            # Nothing upstream of the encoder: frozen => skip backward
            # (the input projector's gradient is computed at the boundary
            # without traversing the encoder stack).
            return False
        # LLM / generator must relay gradients toward upstream trainable
        # modules or projectors.
        if module_name == "generator":
            # The generator's own diffusion loss sits behind it, but if
            # it is frozen that loss is unused; it still relays nothing
            # downstream. However the output projector (trainable) sits
            # at its input boundary, so dX must be computed through the
            # generator only when the generator itself hosts the loss —
            # it does, so relay iff projectors train.
            return self.train_projectors
        if module_name == "llm":
            # The LM-head loss sits inside the LLM; upstream encoder or
            # input projector training requires dX through the LLM.
            return (
                self.train_encoder
                or self.train_projectors
                or self.train_generator
            )
        raise KeyError(f"unknown module {module_name!r}")

    def backward_factor(self, module_name: str) -> float:
        """Backward compute as a multiple of forward compute.

        2.0 = full backward (dX + dW); 1.0 = dX-only relay; 0.0 = skipped.
        """
        if self.trains(module_name):
            return 2.0
        return 1.0 if self.needs_backward(module_name) else 0.0

    def describe(self) -> str:
        flags = [name for name in MODULE_NAMES if self.trains(name)]
        if not flags:
            return "projectors-only"
        if len(flags) == 3:
            return "full-training"
        return "+".join(flags) + "-training"


FROZEN_PRESETS = {
    # The four settings of Figures 18/19.
    "all-frozen": FrozenConfig(
        train_encoder=False, train_llm=False, train_generator=False
    ),
    "encoder-only": FrozenConfig(
        train_encoder=True, train_llm=False, train_generator=False
    ),
    "llm-only": FrozenConfig(
        train_encoder=False, train_llm=True, train_generator=False
    ),
    "generator-only": FrozenConfig(
        train_encoder=False, train_llm=False, train_generator=True
    ),
    "full": FrozenConfig(),
}
