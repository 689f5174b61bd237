import tracemalloc

import numpy as np
import pytest

from conftest import full_reverse_input_gradient

from advlab.attacks import AttackSpec, _random_offset, pgd
from advlab.network import (
    Layer,
    Network,
    cross_entropy,
    cw_margin,
    forward,
    input_gradient,
    loss_logit_grad,
)


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
                epsilon=0.15, step_size=0.05, steps=10, norm=norm, random_start=True
            )
            adv = pgd(net, x, labels, spec, seed=7)
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
        spec = AttackSpec(epsilon=0.1, step_size=0.02, steps=5, random_start=True)
        a = pgd(net, x, labels, spec, seed=11)
        b = pgd(net, x, labels, spec, seed=11)
        assert np.array_equal(a, b)

    def test_seed_changes_random_start(self):
        rng = np.random.default_rng(5)
        net = random_net(seed=6)
        x = rng.uniform(0.3, 0.7, (4, 6))
        labels = rng.integers(0, 4, size=4)
        spec = AttackSpec(0.1, 0.02, 5, random_start=True)
        a = pgd(net, x, labels, spec, seed=1)
        b = pgd(net, x, labels, spec, seed=2)
        assert not np.array_equal(a, b)


def reference_pgd(net, x, labels, spec, ref_logits=None):
    """Non-random-start PGD as separate steps: the full reverse pass, the
    step, the clip to the ball, then the clip to the box."""
    if spec.loss == "kl" and ref_logits is None:
        ref_logits = forward(net, x).logits
    adv = x.copy()
    for _ in range(spec.steps):
        tape = forward(net, adv)
        dlogits = loss_logit_grad(spec.loss, tape.logits, labels, ref_logits)
        grad = full_reverse_input_gradient(net, tape, dlogits)
        if spec.norm == "linf":
            adv = adv + spec.step_size * np.sign(grad)
            adv = np.clip(adv, x - spec.epsilon, x + spec.epsilon)
        else:
            adv = adv + spec.step_size * grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-300)
            delta = adv - x
            norms = np.linalg.norm(delta, axis=1, keepdims=True)
            adv = x + delta * np.where(norms > spec.epsilon, spec.epsilon / np.maximum(norms, 1e-300), 1.0)
        adv = np.clip(adv, 0.0, 1.0)
    return adv


class TestPgdMatchesReferenceLoop:
    @pytest.mark.parametrize("spec", [
        AttackSpec(0.15, 0.15, 1),
        AttackSpec(0.15, 0.0375, 20),
        AttackSpec(0.15, 0.0375, 20, loss="cw_margin"),
        AttackSpec(0.15, 0.0375, 10, loss="kl"),
        AttackSpec(0.75, 0.1875, 20, norm="l2"),
        AttackSpec(0.75, 0.1875, 10, norm="l2", loss="kl"),
    ], ids=["fgsm", "linf", "cw_margin", "kl", "l2", "l2-kl"])
    @pytest.mark.parametrize("dims", [(32, 96, 96, 10), (784, 64, 10)])
    def test_bit_identical(self, spec, dims):
        rng = np.random.default_rng(30)
        net = random_net(seed=31, dims=dims)
        x = rng.uniform(0, 1, (50, dims[0]))
        x[:, :3] = [0.0, 1.0, 0.05]  # the box binds on these columns
        labels = rng.integers(0, dims[-1], size=50)
        got = pgd(net, x, labels, spec)
        assert got.tobytes() == reference_pgd(net, x, labels, spec).tobytes()


class TestPgdBuffers:
    @pytest.mark.parametrize("steps", [1, 20])
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("random_start", [False, True])
    def test_peak_memory_is_a_few_batches(self, norm, steps, random_start):
        rng = np.random.default_rng(32)
        net = random_net(seed=33, dims=(784, 64, 10))
        x = rng.uniform(0, 1, (200, 784))
        labels = rng.integers(0, 10, size=200)
        eps = 0.3 if norm == "linf" else 2.0
        spec = AttackSpec(eps, eps / 4, steps, norm=norm, random_start=random_start)
        tracemalloc.start()
        try:
            adv = pgd(net, x, labels, spec, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the iterate, the gradient, its sign and the two l-inf bounds are
        # made once per call; a step allocates no further (200, 784) array
        assert peak <= 6 * x.nbytes, f"peak {peak / x.nbytes:.2f} batches"
        assert adv.shape == x.shape

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_sign_never_writes_over_its_input(self, monkeypatch, norm):
        original, calls = np.sign, []

        def checked(a, *args, **kw):
            out = kw.get("out", args[0] if args else None)
            for o in out if isinstance(out, tuple) else (out,):
                assert o is None or not np.shares_memory(o, a), "np.sign wrote over its input"
            calls.append(a.shape)
            return original(a, *args, **kw)

        monkeypatch.setattr(np, "sign", checked)
        rng = np.random.default_rng(34)
        net = random_net(seed=35)
        x = rng.uniform(0, 1, (8, 6))
        pgd(net, x, rng.integers(0, 4, size=8), AttackSpec(0.2, 0.05, 3, norm=norm))
        assert len(calls) == (3 if norm == "linf" else 0)

    def test_non_finite_iterate_is_rejected(self):
        # an l2 step along an infinite gradient leaves the iterate nan
        net = Network([Layer(np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]), "identity")])
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(ValueError, match="batch contains non-finite entries")):
            pgd(net, np.array([[0.5, 0.5]]), [1], AttackSpec(0.1, 0.05, 3, norm="l2"))


def pgd_start(origin, spec, seed):
    """pgd's projected random start: one step on a network whose input gradient is 0 adds 0 to it."""
    net = Network([Layer(np.zeros((2, origin.shape[1] + 1)), "identity")])
    return pgd(net, origin, np.zeros(len(origin), dtype=int), spec, seed=seed)


class TestRandomStart:
    @pytest.mark.parametrize("norm, epsilon", [("linf", 0.15), ("l2", 0.75)])
    def test_rows_are_a_prefix_stream(self, norm, epsilon):
        origin = np.random.default_rng(40).uniform(0, 1, (64, 32))
        spec = AttackSpec(epsilon, epsilon, norm=norm, random_start=True)
        full = pgd_start(origin, spec, 41)
        for k in (1, 7, 63):
            assert np.array_equal(_random_offset((k, 32), spec, 41), _random_offset((64, 32), spec, 41)[:k])
            assert np.array_equal(pgd_start(origin[:k], spec, 41), full[:k])

    @pytest.mark.parametrize("norm, epsilon", [("linf", 0.15), ("l2", 0.75)])
    def test_inside_the_ball_and_the_box(self, norm, epsilon):
        rng = np.random.default_rng(42)
        for seed in range(20):
            origin = rng.uniform(0, 1, (50, 32))
            origin[:, :2] = [0.0, 1.0]
            start = pgd_start(origin, AttackSpec(epsilon, epsilon, norm=norm, random_start=True), seed)
            assert np.all(start >= 0.0) and np.all(start <= 1.0)
            delta = start - origin
            if norm == "linf":
                assert np.abs(delta).max() <= epsilon * (1 + 1e-12)
            else:
                assert np.linalg.norm(delta, axis=1).max() <= epsilon * (1 + 1e-12)

    @pytest.mark.parametrize("norm, epsilon", [("linf", 0.15), ("l2", 0.75)])
    def test_another_seed_changes_the_start(self, norm, epsilon):
        origin = np.full((10, 32), 0.5)
        spec = AttackSpec(epsilon, epsilon, norm=norm, random_start=True)
        a, b = (pgd_start(origin, spec, s) for s in (1, 2))
        assert np.all((a != b).any(axis=1))


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
