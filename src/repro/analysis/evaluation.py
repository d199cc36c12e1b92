"""Post-attack evaluation.

The paper reports three kinds of numbers for every attack configuration:

* the size of the parameter modification (ℓ0 / ℓ2 norms, Tables 1–3),
* the attack success rate over the ``S`` target images and the keep rate over
  the ``R − S`` pinned images (Table 2, Figure 3),
* the test accuracy of the modified model on the full held-out test set
  (Table 4), compared against the clean model's accuracy.

:func:`evaluate_attack_results` computes all of them for attack results
(:class:`~repro.attacks.fault_sneaking.FaultSneakingResult` or any result
object exposing the same small interface) against a test dataset;
:func:`evaluate_attack_result` is its one-result form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.metrics import accuracy as _accuracy
from repro.nn.model import PrefixCache, Sequential

__all__ = [
    "AttackEvaluation",
    "count_modified_parameters",
    "evaluate_modification",
    "evaluate_attack_result",
    "evaluate_attack_results",
]


def count_modified_parameters(delta: np.ndarray, *, tolerance: float = 1e-8) -> int:
    """Number of entries of ``δ`` whose magnitude exceeds ``tolerance``."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    return int(np.count_nonzero(np.abs(np.asarray(delta)) > tolerance))


@dataclass(frozen=True)
class AttackEvaluation:
    """All headline metrics of one attack instance."""

    num_targets: int
    num_images: int
    l0_norm: int
    l2_norm: float
    linf_norm: float
    success_rate: float
    num_successful_faults: int
    keep_rate: float
    clean_test_accuracy: float
    attacked_test_accuracy: float

    @property
    def accuracy_drop(self) -> float:
        """Absolute test-accuracy degradation caused by the modification."""
        return self.clean_test_accuracy - self.attacked_test_accuracy

    @property
    def accuracy_drop_percent(self) -> float:
        """Accuracy degradation in percentage points (the unit used in §5.4)."""
        return 100.0 * self.accuracy_drop

    def as_dict(self) -> dict:
        """Plain-dict form used by the reporting and experiment modules."""
        return {
            "S": self.num_targets,
            "R": self.num_images,
            "l0": self.l0_norm,
            "l2": self.l2_norm,
            "linf": self.linf_norm,
            "success_rate": self.success_rate,
            "successful_faults": self.num_successful_faults,
            "keep_rate": self.keep_rate,
            "clean_accuracy": self.clean_test_accuracy,
            "attacked_accuracy": self.attacked_test_accuracy,
            "accuracy_drop_percent": self.accuracy_drop_percent,
        }


def evaluate_modification(
    clean_model: Sequential,
    attacked_model: Sequential,
    test_set: Dataset,
    *,
    batch_size: int = 256,
) -> tuple[float, float]:
    """Return ``(clean_accuracy, attacked_accuracy)`` on a test dataset."""
    clean = clean_model.evaluate(test_set.images, test_set.labels, batch_size=batch_size)
    attacked = attacked_model.evaluate(test_set.images, test_set.labels, batch_size=batch_size)
    return clean, attacked


def evaluate_attack_result(
    result,
    test_set: Dataset,
    *,
    clean_model: Sequential | None = None,
    clean_accuracy: float | None = None,
    zero_tolerance: float = 1e-8,
    batch_size: int = 256,
) -> AttackEvaluation:
    """Evaluate one attack result against a held-out test set.

    Parameters
    ----------
    result:
        Any object exposing ``view`` (its
        :class:`~repro.attacks.parameter_view.ParameterView`), ``delta``,
        ``plan`` (with ``num_targets`` / ``num_images``), ``success_mask``,
        ``keep_mask`` and ``modified_model()`` — both
        :class:`FaultSneakingResult` and :class:`GradientDescentResult`
        qualify.
    test_set:
        The full held-out test set used for the accuracy-retention numbers.
    clean_model:
        The unmodified victim model.  Defaults to ``result.view.model``.
    clean_accuracy:
        Pass a pre-computed clean accuracy to avoid re-evaluating the clean
        model for every attack in a sweep.
    zero_tolerance:
        Threshold below which a modification entry counts as zero.
    """
    return evaluate_attack_results(
        [result],
        test_set,
        clean_model=clean_model,
        clean_accuracy=clean_accuracy,
        zero_tolerance=zero_tolerance,
        batch_size=batch_size,
    )[0]


def evaluate_attack_results(
    results,
    test_set: Dataset,
    *,
    clean_model: Sequential | None = None,
    clean_accuracy: float | None = None,
    zero_tolerance: float = 1e-8,
    batch_size: int = 256,
) -> list[AttackEvaluation]:
    """Evaluate several attacks on one victim, sharing the prefix forward.

    Every result must attack the same victim through the same parameter
    selection (a fused campaign group by construction).  The test-set
    activations below the first attacked layer are computed once on the
    clean model (:class:`~repro.nn.model.PrefixCache`) and only the suffix
    layers re-run per attack, so each accuracy is bit-identical to a
    full-network evaluation of that attacked model.  A test image whose
    logits are not finite counts as misclassified.
    """
    if not results:
        return []
    model = clean_model if clean_model is not None else results[0].view.model
    starts = {result.view.first_layer_index for result in results}
    if len(starts) != 1:
        raise ValueError(
            f"results must share one attacked-parameter selection, got "
            f"first layer indices {sorted(starts)}"
        )
    labels = test_set.labels
    prefix = PrefixCache(model, test_set.images, starts.pop(), batch_size=batch_size)
    if clean_accuracy is None:
        clean_accuracy = _accuracy(labels, prefix.predict(model))
    return [
        _build_evaluation(
            result,
            np.asarray(result.delta),
            clean_accuracy,
            _accuracy(labels, prefix.predict(result.modified_model())),
            zero_tolerance,
        )
        for result in results
    ]


def _build_evaluation(
    result,
    delta: np.ndarray,
    clean_accuracy: float,
    attacked_accuracy: float,
    zero_tolerance: float,
) -> AttackEvaluation:
    success_mask = np.asarray(result.success_mask, dtype=bool)
    keep_mask = np.asarray(result.keep_mask, dtype=bool)
    return AttackEvaluation(
        num_targets=int(result.plan.num_targets),
        num_images=int(result.plan.num_images),
        l0_norm=count_modified_parameters(delta, tolerance=zero_tolerance),
        l2_norm=float(np.linalg.norm(delta)),
        linf_norm=float(np.max(np.abs(delta))) if delta.size else 0.0,
        success_rate=float(success_mask.mean()) if success_mask.size else 1.0,
        num_successful_faults=int(success_mask.sum()),
        keep_rate=float(keep_mask.mean()) if keep_mask.size else 1.0,
        clean_test_accuracy=float(clean_accuracy),
        attacked_test_accuracy=float(attacked_accuracy),
    )
