import numpy as np
import pytest

from advlab.attacks import AttackSpec, pgd
from advlab.network import Layer, Network, cross_entropy, cw_margin, forward, input_gradient


def linear_two_class():
    # logits = (x1, x2): cross-entropy on label 1 ascends x1 and descends x2
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return Network([Layer(w, "identity")])


def random_net(seed=0, dims=(6, 12, 4)):
    return Network.he_init(list(dims), seed=seed)


def one_step(net, x, labels, epsilon, loss="cross_entropy"):
    """FGSM: one PGD step of size epsilon."""
    return pgd(net, x, labels, AttackSpec(epsilon, epsilon, steps=1, loss=loss))


class TestFgsm:
    def test_one_step_pgd_is_the_signed_gradient_step(self):
        rng = np.random.default_rng(4)
        net = random_net(seed=5)
        x = rng.uniform(0, 1, (7, 6))  # the box binds on some coordinates
        labels = rng.integers(0, 4, size=7)
        grad = input_gradient(net, x, "cross_entropy", labels)
        expect = np.clip(x + 0.2 * np.sign(grad), 0.0, 1.0)
        assert np.array_equal(one_step(net, x, labels, 0.2), expect)

    def test_constant_gradient_direction(self):
        net = linear_two_class()
        x = np.array([[0.5, 0.5]])
        got = one_step(net, x, [1], epsilon=0.1)
        # loss x1 - x2 up to softmax monotonicity: push x1 up, x2 down
        assert np.allclose(got - x, [[0.1, -0.1]], atol=1e-15)

    def test_zero_gradient_leaves_input(self):
        net = Network([Layer(np.zeros((2, 3)), "identity")])
        x = np.array([[0.4, 0.6]])
        assert np.array_equal(one_step(net, x, [0], epsilon=0.1), x)

    def test_full_magnitude_on_active_coordinates(self):
        rng = np.random.default_rng(1)
        net = random_net(seed=2)
        x = rng.uniform(0.2, 0.8, (5, 6))  # box never binds at eps=0.1
        labels = rng.integers(0, 4, size=5)
        delta = one_step(net, x, labels, epsilon=0.1) - x
        grad = input_gradient(net, x, "cross_entropy", labels)
        active = grad != 0
        assert np.allclose(np.abs(delta[active]), 0.1, atol=1e-15)
        assert np.all(delta[~active] == 0.0)


class TestPgdProjection:
    def test_linf_step_is_clamped(self):
        net = linear_two_class()
        x = np.array([[0.5, 0.5]])
        spec = AttackSpec(epsilon=0.1, step_size=0.2, steps=1, norm="linf")
        got = pgd(net, x, [1], spec)
        assert np.allclose(got - x, [[0.1, -0.1]], atol=1e-15)

    def test_l2_step_is_rescaled_to_radius(self):
        net = linear_two_class()
        x = np.array([[0.5, 0.5]])
        eps = 0.1
        spec = AttackSpec(epsilon=eps, step_size=2 * eps, steps=1, norm="l2")
        got = pgd(net, x, [1], spec)
        assert np.linalg.norm(got - x) == pytest.approx(eps, abs=1e-12)

    def test_ball_containment_and_box(self):
        rng = np.random.default_rng(3)
        net = random_net(seed=4)
        x = rng.uniform(0, 1, (8, 6))
        labels = rng.integers(0, 4, size=8)
        for norm in ("linf", "l2"):
            spec = AttackSpec(
                epsilon=0.15, step_size=0.05, steps=10, norm=norm, random_start=True, seed=7
            )
            adv = pgd(net, x, labels, spec)
            assert np.all(adv >= 0.0) and np.all(adv <= 1.0)
            delta = adv - x
            if norm == "linf":
                assert np.abs(delta).max() <= 0.15 + 1e-9
            else:
                assert np.linalg.norm(delta, axis=1).max() <= 0.15 + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        net = random_net(seed=6)
        x = rng.uniform(0, 1, (4, 6))
        labels = rng.integers(0, 4, size=4)
        spec = AttackSpec(epsilon=0.1, step_size=0.02, steps=5, random_start=True, seed=11)
        a = pgd(net, x, labels, spec)
        b = pgd(net, x, labels, spec)
        assert np.array_equal(a, b)

    def test_seed_changes_random_start(self):
        rng = np.random.default_rng(5)
        net = random_net(seed=6)
        x = rng.uniform(0.3, 0.7, (4, 6))
        labels = rng.integers(0, 4, size=4)
        a = pgd(net, x, labels, AttackSpec(0.1, 0.02, 5, random_start=True, seed=1))
        b = pgd(net, x, labels, AttackSpec(0.1, 0.02, 5, random_start=True, seed=2))
        assert not np.array_equal(a, b)


class TestAttackStrengthOrdering:
    def test_pgd_beats_fgsm_beats_clean_in_median(self):
        eps = 0.1
        losses_clean, losses_one_step, losses_pgd = [], [], []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            net = random_net(seed=200 + seed)
            x = rng.uniform(0, 1, (16, 6))
            labels = rng.integers(0, 4, size=16)
            spec = AttackSpec(epsilon=eps, step_size=eps / 4, steps=20)
            losses_clean.append(cross_entropy(forward(net, x).logits, labels))
            adv = one_step(net, x, labels, eps)
            losses_one_step.append(cross_entropy(forward(net, adv).logits, labels))
            losses_pgd.append(cross_entropy(forward(net, pgd(net, x, labels, spec)).logits, labels))
        assert np.median(losses_pgd) >= np.median(losses_one_step) >= np.median(losses_clean)


class TestCwPgd:
    def test_margin_never_decreases_without_random_start(self):
        rng = np.random.default_rng(8)
        net = random_net(seed=9)
        x = rng.uniform(0, 1, (10, 6))
        labels = rng.integers(0, 4, size=10)
        spec = AttackSpec(epsilon=0.1, step_size=0.02, steps=10, loss="cw_margin")
        adv = pgd(net, x, labels, spec)
        before = cw_margin(forward(net, x).logits, labels)
        after = cw_margin(forward(net, adv).logits, labels)
        assert after >= before - 1e-9

    def test_misclassified_stays_misclassified(self):
        net = linear_two_class()
        x = np.array([[0.2, 0.8]])  # label 0 but logit_1 larger
        spec = AttackSpec(epsilon=0.05, step_size=0.01, steps=10, loss="cw_margin")
        adv = pgd(net, x, [0], spec)
        logits = forward(net, adv).logits
        assert logits[0, 1] > logits[0, 0]

    def test_two_class_direction_matches_fgsm(self):
        net = linear_two_class()
        rng = np.random.default_rng(10)
        x = rng.uniform(0.3, 0.7, (6, 2))
        labels = rng.integers(0, 2, size=6)
        eps = 0.05
        d_cw = np.sign(one_step(net, x, labels, eps, loss="cw_margin") - x)
        d_ce = np.sign(one_step(net, x, labels, eps) - x)
        assert np.array_equal(d_cw, d_ce)


class TestSpecValidation:
    def test_rejects_oversized_step(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=0.1, step_size=0.3)

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=0.1, step_size=0.1, norm="l1")

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=-0.1, step_size=0.1)

    def test_zero_epsilon_is_noop(self):
        net = random_net(seed=20)
        x = np.random.default_rng(21).uniform(0, 1, (3, 6))
        spec = AttackSpec(epsilon=0.0, step_size=0.1, steps=4)
        assert np.array_equal(pgd(net, x, [0, 1, 2], spec), x)
