"""Visual prompting / model reprogramming.

Implements the four-step VP procedure of Section 3 of the paper:

1. *Initialisation* — :class:`VisualPrompt` holds the trainable prompt ``theta``.
2. *Visual prompt padding* — ``V(x | theta)`` resizes the target-domain image
   and pads it with the prompt (:meth:`VisualPrompt.apply`).
3. *Output mapping* — :class:`LabelMapping` (identity by default, as the paper
   omits the trainable mapping; a frequency-based mapping is available).
4. *Prompted model training* — :func:`train_prompt_whitebox` (backpropagation
   through the frozen model, used for shadow models) and
   :func:`train_prompt_blackbox` (CMA-ES / SPSA over queries, used for the
   suspicious model).

:class:`PromptedClassifier` bundles a frozen source classifier with a trained
prompt and exposes the prompted model ``f_T = O ∘ f_S ∘ V``.
"""

from repro.prompting.prompt import VisualPrompt
from repro.prompting.output_mapping import LabelMapping
from repro.prompting.prompted import PromptedClassifier
from repro.prompting.trainer import train_prompt_whitebox
from repro.prompting.blackbox import QueryCounter, train_prompt_blackbox

__all__ = [
    "VisualPrompt",
    "LabelMapping",
    "PromptedClassifier",
    "QueryCounter",
    "train_prompt_whitebox",
    "train_prompt_blackbox",
]
