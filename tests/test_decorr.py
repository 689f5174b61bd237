import numpy as np
import pytest

from conftest import away_from_relu_kinks, fd_input_gradient, fd_weight_gradients, max_rel_error

from advlab.decorr import (
    DecorrConfig,
    _second_moment,
    decorr_penalty,
    hessian_kron_factors,
    normalized_precision,
    penalty_and_grad,
    penalty_dacts,
    resolve_ridge,
)
from advlab.linalg import normalize_to_correlation
from advlab.network import Layer, Network, backward, cross_entropy, forward


def identity_layer(dim, activation="relu"):
    return Layer(np.hstack([np.eye(dim), np.zeros((dim, 1))]), activation)


def identity_passthrough_net(dim):
    return Network([identity_layer(dim, "relu"), identity_layer(dim, "identity")])


class TestActivationCovariance:
    """The penalty's covariance (1/B) sum a a^T of the activations feeding a layer."""

    def test_single_vector(self):
        net = identity_passthrough_net(2)
        tape = forward(net, np.array([[1.0, 0.0]]))
        assert np.array_equal(_second_moment(tape.activations[0]), [[1.0, 0.0], [0.0, 0.0]])

    def test_antipodal_pair(self):
        net = identity_passthrough_net(2)
        v = 1.0 / np.sqrt(2.0)
        # the covariance is over the raw layer-1 inputs, sign included
        tape = forward(net, np.array([[v, v], [-v, -v]]))
        assert np.allclose(_second_moment(tape.activations[0]), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_matches_outer_product_loop(self):
        rng = np.random.default_rng(0)
        net = Network.he_init([4, 6, 3], seed=1)
        x = rng.uniform(0, 1, (8, 4))
        tape = forward(net, x)
        got = _second_moment(tape.activations[1])
        a = tape.activations[1]
        expect = sum(np.outer(row, row) for row in a) / len(a)
        assert np.allclose(got, expect, atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="cannot form a covariance from an empty batch"):
            penalty_and_grad(np.empty((0, 2)), DecorrConfig())


class TestNormalizedPrecision:
    def test_identity_covariance(self):
        for damping in (1e-6, 0.1, 10.0):
            assert np.array_equal(normalized_precision(np.eye(4), damping), np.eye(4))

    def test_two_by_two_hand_inverse(self):
        cov = np.array([[2.0, 1.0], [1.0, 1.0]])
        # inverse [[1,-1],[-1,2]] normalizes to off-diagonal -1/sqrt(2)
        got = normalized_precision(cov, 1e-9)
        expect = np.array([[1.0, -1.0 / np.sqrt(2.0)], [-1.0 / np.sqrt(2.0), 1.0]])
        assert np.allclose(got, expect, atol=1e-6)

    def test_idempotent_under_normalization(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 8))
        a = normalized_precision(g @ g.T / 8, 1e-3)
        assert np.array_equal(normalize_to_correlation(a), a)

    def test_symmetry_through_chain(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 4))  # rank deficient: ridge must rescue
        a = normalized_precision(g @ g.T / 4, 1e-2)
        assert np.abs(a - a.T).max() < 1e-10
        assert np.abs(a).max() <= 1.0 + 1e-12


class TestPenalty:
    def test_decorrelated_activations_hit_floor(self):
        dim = 3
        net = identity_passthrough_net(dim)
        x = 0.7 * np.eye(dim)  # orthogonal rows: diagonal covariance
        tape = forward(net, x)
        cfg = DecorrConfig(alpha=1.0, layer_policy="last")
        assert decorr_penalty(tape, tape, cfg) == 2.0 * dim

    def test_rank_one_activations_exceed_floor(self):
        dim = 4
        net = identity_passthrough_net(dim)
        x = np.tile([[0.9, 0.8, 0.7, 0.6]], (6, 1))
        tape = forward(net, x)
        cfg = DecorrConfig(alpha=1.0, damping=1e-3, damping_mode="absolute")
        assert decorr_penalty(tape, tape, cfg) > 2.0 * dim

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (10, 5))
        cfg = DecorrConfig(alpha=1.0)
        perm = rng.permutation(5)
        # relabeling units only reorders the elimination, equal to roundoff
        assert penalty_and_grad(a[:, perm], cfg)[0] == pytest.approx(
            penalty_and_grad(a, cfg)[0], rel=1e-12
        )

    def test_rejects_mismatched_tapes(self):
        net_a = identity_passthrough_net(2)
        net_b = identity_passthrough_net(2)
        x = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="clean and adversarial tapes come from different networks"):
            decorr_penalty(forward(net_a, x), forward(net_b, x), DecorrConfig())


class TestDeadUnitFloor:
    """A unit that is 0 on every row costs exactly the penalty's per-unit floor, 1.

    Its row and column of the second moment are zero, so its row of the ridged
    precision is e_i / ridge and its row of the normalized precision is e_i. In
    `absolute` mode the ridge ignores the activations, so the dead unit leaves the
    live units' block as it is and adds exactly 1. `scaled` mode divides trace(cov)
    by the wider h, which moves the live units' ridge: there the +1 does not hold.
    """

    def live_and_dead(self, seed):
        live = np.maximum(np.random.default_rng(seed).standard_normal((16, 6)), 0.0)
        return live, np.hstack([live, np.zeros((16, 1))])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adds_exactly_one_under_absolute_damping(self, seed):
        live, dead = self.live_and_dead(seed)
        cfg = DecorrConfig(damping=0.05, damping_mode="absolute")
        value, grad = penalty_and_grad(live, cfg)
        value_dead, grad_dead = penalty_and_grad(dead, cfg)
        assert abs(value_dead - (value + 1.0)) <= 1e-12 * (value + 1.0)
        assert np.abs(grad_dead[:, :-1] - grad).max() <= 1e-12 * np.abs(grad).max()
        assert np.array_equal(grad_dead[:, -1], np.zeros(16))

    @pytest.mark.parametrize("mode", ["absolute", "scaled"])
    def test_normalized_precision_row_is_the_unit_vector(self, mode):
        _, dead = self.live_and_dead(3)
        cov = _second_moment(dead)
        ridge, _ = resolve_ridge(cov, DecorrConfig(damping=0.05, damping_mode=mode))
        p = normalized_precision(cov, ridge)
        unit = np.eye(dead.shape[1])[-1]
        assert np.array_equal(p[-1], unit) and np.array_equal(p[:, -1], unit)


def penalty_weight_gradients(net, tape_clean, tape_adv, cfg):
    """alpha * d decorr_penalty / d weights: one zero-logits reverse pass per tape."""
    clean, adv = (backward(net, t, np.zeros_like(t.logits), penalty_dacts(t, cfg))
                  for t in (tape_clean, tape_adv))
    return [g1 + g2 for g1, g2 in zip(clean, adv)]


class TestActivationGradient:
    @pytest.mark.parametrize("mode", ["absolute", "scaled"])
    def test_matches_finite_differences(self, mode):
        a = np.random.default_rng(14).uniform(0, 1, (7, 5))
        cfg = DecorrConfig(alpha=1.0, damping=1e-2, damping_mode=mode)
        analytic = penalty_and_grad(a, cfg)[1]
        oracle = fd_input_gradient(lambda b: penalty_and_grad(b, cfg)[0], a, step=1e-6)
        assert max_rel_error([analytic], [oracle]) < 1e-4

    def test_value_is_the_normalized_precision_norm(self):
        a = np.random.default_rng(15).uniform(0, 1, (6, 4))
        cov = a.T @ a / 6
        ridge = 1e-2 * np.trace(cov) / 4
        value = penalty_and_grad(a, DecorrConfig(damping=1e-2))[0]
        assert value == pytest.approx(float((normalized_precision(cov, ridge) ** 2).sum()), rel=1e-12)


class TestGradient:
    def fd_reference(self, net, x_clean, x_adv, cfg):
        def scalar(n):
            return cfg.alpha * decorr_penalty(forward(n, x_clean), forward(n, x_adv), cfg)

        return fd_weight_gradients(scalar, net, step=1e-6)

    @pytest.mark.parametrize("mode", ["absolute", "scaled"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(5)
        net = Network.he_init([4, 6, 3], seed=11)
        x_clean = rng.uniform(0, 1, (8, 4))
        x_adv = np.clip(x_clean + rng.uniform(-0.1, 0.1, x_clean.shape), 0, 1)
        assert away_from_relu_kinks(net, x_clean) and away_from_relu_kinks(net, x_adv)
        cfg = DecorrConfig(alpha=1.0, damping=1e-2, damping_mode=mode, layer_policy="last")
        analytic = penalty_weight_gradients(net, forward(net, x_clean), forward(net, x_adv), cfg)
        oracle = self.fd_reference(net, x_clean, x_adv, cfg)
        assert max_rel_error(analytic, oracle) < 1e-4

    def test_all_layer_policy_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = Network.he_init([3, 5, 4, 2], seed=13)
        x_clean = rng.uniform(0, 1, (6, 3))
        x_adv = np.clip(x_clean + rng.uniform(-0.05, 0.05, x_clean.shape), 0, 1)
        assert away_from_relu_kinks(net, x_clean) and away_from_relu_kinks(net, x_adv)
        cfg = DecorrConfig(alpha=0.7, damping=1e-2, damping_mode="absolute", layer_policy="all")
        analytic = penalty_weight_gradients(net, forward(net, x_clean), forward(net, x_adv), cfg)
        oracle = self.fd_reference(net, x_clean, x_adv, cfg)
        assert max_rel_error(analytic, oracle) < 1e-4

    def test_downstream_weight_block_is_zero(self):
        rng = np.random.default_rng(7)
        net = Network.he_init([4, 6, 3], seed=15)
        x = rng.uniform(0, 1, (5, 4))
        tape = forward(net, x)
        grads = penalty_weight_gradients(net, tape, tape, DecorrConfig(alpha=1.0))
        assert np.array_equal(grads[-1], np.zeros_like(net.layers[-1].weight))
        assert np.any(grads[0] != 0.0)

    def test_alpha_linearity(self):
        rng = np.random.default_rng(8)
        net = Network.he_init([4, 6, 3], seed=17)
        x = rng.uniform(0, 1, (5, 4))
        tape = forward(net, x)
        one = penalty_weight_gradients(net, tape, tape, DecorrConfig(alpha=0.25))
        two = penalty_weight_gradients(net, tape, tape, DecorrConfig(alpha=0.5))
        for g1, g2 in zip(one, two):
            assert np.array_equal(2.0 * g1, g2)


class TestHessianFactors:
    def test_uniform_two_class(self):
        net = Network([Layer(np.zeros((2, 3)), "identity")])
        tape = forward(net, np.array([[0.3, 0.4]]))
        _, h_hat = hessian_kron_factors(tape, [0], 1)
        assert np.allclose(h_hat, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_one_hot_probabilities(self):
        w = np.array([[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        net = Network([Layer(w, "identity")])
        tape = forward(net, np.array([[1.0, 0.0]]))
        _, h_hat = hessian_kron_factors(tape, [0], 1)
        assert np.abs(h_hat).max() < 1e-12

    def test_single_sample_kron_equals_fd_hessian(self):
        rng = np.random.default_rng(9)
        net = Network.he_init([3, 4], seed=19)  # one affine layer, 4 classes
        x = rng.uniform(0, 1, (1, 3))
        y = [2]
        tape = forward(net, x)
        a_hat, h_hat = hessian_kron_factors(tape, y, 1)
        kron = np.kron(a_hat, h_hat)

        w0 = net.weights[0]
        out, cols = w0.shape
        n = out * cols
        step = 1e-4

        def loss_at(flat_f):
            w = flat_f.reshape(cols, out).T  # column-major layout
            return cross_entropy(forward(net.with_weights([w]), x).logits, y)

        base = w0.T.reshape(-1)  # column-major vec of the weight
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                pp, pm, mp, mm = (base.copy() for _ in range(4))
                pp[i] += step; pp[j] += step
                pm[i] += step; pm[j] -= step
                mp[i] -= step; mp[j] += step
                mm[i] -= step; mm[j] -= step
                fd[i, j] = (loss_at(pp) - loss_at(pm) - loss_at(mp) + loss_at(mm)) / (4 * step**2)
        rel = np.abs(kron - fd).max() / np.abs(fd).max()
        assert rel < 1e-6

    def test_multi_sample_factorization_gap_reported(self):
        rng = np.random.default_rng(10)
        net = Network.he_init([3, 4], seed=21)
        x = rng.uniform(0, 1, (6, 3))
        y = rng.integers(0, 4, size=6)
        tape = forward(net, x)
        a_hat, h_hat = hessian_kron_factors(tape, y, 1)
        from advlab.network import softmax

        aug = np.hstack([x, np.ones((6, 1))])
        p = softmax(tape.logits)
        exact = np.zeros((a_hat.shape[0] * 4, a_hat.shape[0] * 4))
        for row_a, row_p in zip(aug, p):
            exact += np.kron(np.outer(row_a, row_a), np.diag(row_p) - np.outer(row_p, row_p))
        exact /= len(aug)
        gap = np.linalg.norm(np.kron(a_hat, h_hat) - exact) / np.linalg.norm(exact)
        # the factorized expectation differs in general: report, never bound
        print(f"multi-sample Kronecker factorization relative gap: {gap:.3e}")
        assert np.isfinite(gap)

    def test_matches_per_row_reference_sum(self):
        net = Network.he_init([6, 8, 10], seed=27)
        x = np.random.default_rng(13).uniform(0, 1, (500, 6))
        tape = forward(net, x)
        _, h_hat = hessian_kron_factors(tape, np.zeros(500, dtype=int), 2)
        from advlab.network import softmax

        reference = np.zeros((10, 10))
        for row in softmax(tape.logits):
            reference += np.diag(row) - np.outer(row, row)
        reference /= 500
        assert np.abs(h_hat - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_hidden_layer_unsupported(self):
        net = Network.he_init([3, 4, 2], seed=23)
        tape = forward(net, np.random.default_rng(11).uniform(0, 1, (2, 3)))
        with pytest.raises(ValueError, match="available for the output layer only"):
            hessian_kron_factors(tape, [0, 1], 1)

    def test_single_sample_factorization_is_exact(self):
        rng = np.random.default_rng(12)
        net = Network.he_init([3, 4], seed=25)
        x = rng.uniform(0, 1, (1, 3))
        tape = forward(net, x)
        a_hat, h_hat = hessian_kron_factors(tape, [1], 1)
        from advlab.network import softmax

        aug = np.append(x[0], 1.0)
        p = softmax(tape.logits)[0]
        exact = np.kron(np.outer(aug, aug), np.diag(p) - np.outer(p, p))
        assert np.abs(np.kron(a_hat, h_hat) - exact).max() < 1e-12
