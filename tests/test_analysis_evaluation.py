"""Tests for repro.analysis.evaluation."""

import numpy as np
import pytest

from repro.analysis.evaluation import (
    count_modified_parameters,
    evaluate_attack_result,
    evaluate_attack_results,
    evaluate_modification,
)
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan

FAST = dict(iterations=60, warmup_iterations=250, refine_support_steps=30)


class TestCountModified:
    def test_exact_zeros_ignored(self):
        assert count_modified_parameters(np.array([0.0, 1.0, -2.0, 0.0])) == 2

    def test_tolerance(self):
        delta = np.array([1e-12, 1e-3, 0.5])
        assert count_modified_parameters(delta, tolerance=1e-6) == 2
        assert count_modified_parameters(delta, tolerance=0.1) == 1

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            count_modified_parameters(np.ones(3), tolerance=-1.0)


class TestEvaluateModification:
    def test_identical_models(self, tiny_model, tiny_split):
        clean, attacked = evaluate_modification(tiny_model, tiny_model, tiny_split.test)
        assert clean == attacked


class TestEvaluateAttackResult:
    @pytest.fixture(scope="class")
    def evaluated(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        tiny_accuracy = request.getfixturevalue("tiny_accuracy")
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
        result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        evaluation = evaluate_attack_result(
            result, tiny_split.test, clean_model=tiny_model, clean_accuracy=tiny_accuracy
        )
        return evaluation, result, tiny_accuracy

    def test_counts_match_result(self, evaluated):
        evaluation, result, _ = evaluated
        assert evaluation.l0_norm == result.l0_norm
        assert evaluation.l2_norm == pytest.approx(result.l2_norm)
        assert evaluation.num_targets == result.num_targets
        assert evaluation.num_images == result.num_images
        assert evaluation.success_rate == result.success_rate
        assert evaluation.keep_rate == result.keep_rate

    def test_clean_accuracy_passthrough(self, evaluated):
        evaluation, _, tiny_accuracy = evaluated
        assert evaluation.clean_test_accuracy == tiny_accuracy

    def test_accuracy_drop_consistency(self, evaluated):
        evaluation, _, _ = evaluated
        assert evaluation.accuracy_drop == pytest.approx(
            evaluation.clean_test_accuracy - evaluation.attacked_test_accuracy
        )
        assert evaluation.accuracy_drop_percent == pytest.approx(100 * evaluation.accuracy_drop)

    def test_attacked_accuracy_reasonable(self, evaluated):
        evaluation, _, _ = evaluated
        # stealth: the modified model should stay within a modest drop on this tiny problem
        assert evaluation.attacked_test_accuracy >= evaluation.clean_test_accuracy - 0.25

    def test_as_dict_keys(self, evaluated):
        evaluation, _, _ = evaluated
        record = evaluation.as_dict()
        for key in ("S", "R", "l0", "l2", "success_rate", "keep_rate", "accuracy_drop_percent"):
            assert key in record

    def test_clean_accuracy_computed_when_missing(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        plan = make_attack_plan(tiny_split.test, num_targets=1, num_images=5, seed=1)
        result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        evaluation = evaluate_attack_result(result, tiny_split.test)
        expected = tiny_model.evaluate(tiny_split.test.images, tiny_split.test.labels)
        assert evaluation.clean_test_accuracy == pytest.approx(expected)


class TestEvaluateAttackResults:
    """The shared-prefix batched evaluator used by fused campaigns."""

    @pytest.fixture(scope="class")
    def results(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        attack = FaultSneakingAttack(tiny_model, FaultSneakingConfig(norm="l0", **FAST))
        return [
            attack.attack(
                make_attack_plan(tiny_split.test, num_targets=s, num_images=12, seed=seed)
            )
            for s, seed in ((1, 0), (2, 1), (3, 2))
        ]

    def test_matches_scalar_evaluation_bitwise(self, results, tiny_model, tiny_split):
        images, labels = tiny_split.test.images, tiny_split.test.labels
        batched = evaluate_attack_results(results, tiny_split.test, clean_model=tiny_model)
        scalar = [
            evaluate_attack_result(result, tiny_split.test, clean_model=tiny_model)
            for result in results
        ]
        assert [e.as_dict() for e in batched] == [e.as_dict() for e in scalar]
        # The suffix-only accuracies equal full-network evaluations exactly.
        clean = tiny_model.evaluate(images, labels)
        for evaluation, result in zip(batched, results):
            assert evaluation.clean_test_accuracy == clean
            assert evaluation.attacked_test_accuracy == result.modified_model().evaluate(
                images, labels
            )

    def test_empty_input(self, tiny_split):
        assert evaluate_attack_results([], tiny_split.test) == []

    def test_clean_accuracy_passthrough(self, results, tiny_model, tiny_split):
        batched = evaluate_attack_results(
            results, tiny_split.test, clean_model=tiny_model, clean_accuracy=0.5
        )
        assert all(e.clean_test_accuracy == 0.5 for e in batched)
