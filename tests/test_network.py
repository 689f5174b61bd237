import json

import numpy as np
import pytest

from conftest import (
    CHECKPOINT_CORRUPTION_MESSAGES,
    CHECKPOINT_CORRUPTIONS,
    away_from_relu_kinks,
    b64_weight,
    fd_input_gradient,
    fd_weight_gradients,
    full_reverse_input_gradient,
    max_rel_error,
)

from advlab import network
from advlab.attacks import NORMS, AttackSpec, first_flips, pgd
from advlab.data import Dataset
from advlab.io import FormatError
from advlab.network import (
    LOSS_KINDS,
    Layer,
    Network,
    accuracy,
    backward,
    checkpoint_text,
    cross_entropy,
    cw_margin,
    forward,
    input_gradient,
    kl_softmax,
    kl_softmax_grad_p,
    load_checkpoint,
    loss_logit_grad,
    margin_loss,
    save_checkpoint,
    softmax,
)
from advlab.train import trades_gradients


def single_layer(weight):
    return Network([Layer(np.asarray(weight, dtype=float))])


def identity_net(dim):
    w = np.hstack([np.eye(dim), np.zeros((dim, 1))])
    return single_layer(w)


class TestForward:
    def test_identity_weights(self):
        net = identity_net(3)
        x = np.array([[0.2, -1.0, 3.0]])
        assert np.array_equal(forward(net, x).logits, x)

    def test_relu_kills_negative_preactivations(self):
        w = np.hstack([-np.eye(3), np.zeros((3, 1))])
        net = Network([Layer(w), Layer(np.hstack([np.eye(3), np.zeros((3, 1))]))])
        tape = forward(net, np.ones((1, 3)))
        assert np.array_equal(tape.activations[1], np.zeros((1, 3)))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        net = Network.he_init([4, 5, 6, 3], seed=1)
        x = rng.uniform(0, 1, size=(4, 4))
        tape = forward(net, x)

        for row, logits in zip(x, tape.logits):
            a = row
            for depth, layer in enumerate(net.layers, start=1):
                z = np.array(
                    [sum(layer.weight[i, j] * aj for j, aj in enumerate(list(a) + [1.0]))
                     for i in range(layer.out_dim)]
                )
                a = np.maximum(z, 0.0) if depth < len(net.layers) else z  # ReLU but on the logits
            assert np.allclose(a, logits, atol=1e-12)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="batch has 4 features, network expects 3"):
            forward(identity_net(3), np.ones((2, 4)))

    def test_deterministic_init(self):
        a = Network.he_init([4, 8, 2], seed=9)
        b = Network.he_init([4, 8, 2], seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_forward_backward_bit_deterministic(self):
        rng = np.random.default_rng(15)
        net = Network.he_init([5, 7, 3], seed=16)
        x = rng.uniform(0, 1, (4, 5))
        y = rng.integers(0, 3, size=4)
        runs = []
        for _ in range(2):
            tape = forward(net, x)
            grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, y))
            runs.append((tape.logits.copy(), [g.copy() for g in grads]))
        assert np.array_equal(runs[0][0], runs[1][0])
        for g0, g1 in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(g0, g1)


class TestLosses:
    def test_ce_equal_logits(self):
        assert cross_entropy(np.zeros((5, 2)), [0, 1, 0, 1, 1]) == pytest.approx(np.log(2.0))

    def test_ce_vanishes_at_huge_margin(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        assert cross_entropy(logits, [0, 1]) < 1e-6

    def test_ce_matches_logsumexp_formula(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, size=6)
        expect = np.mean(
            [np.log(np.exp(row).sum()) - row[label] for row, label in zip(z, y)]
        )
        assert cross_entropy(z, y) == pytest.approx(expect, abs=1e-12)

    def test_ce_rejects_bad_label(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            cross_entropy(np.zeros((1, 3)), [3])

    def test_margin_loss_cases(self):
        logits = np.array([[2.0, 0.5, 0.1]])
        assert margin_loss(logits, [0], gamma=1.0) == 0.0
        assert margin_loss(logits, [0], gamma=2.0) == 1.0

    def test_margin_loss_matches_row_loop(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((100, 5))
        y = rng.integers(0, 5, size=100)
        gamma = 0.3
        expect = np.mean(
            [1.0 if row[l] <= gamma + max(row[j] for j in range(5) if j != l) else 0.0
             for row, l in zip(z, y)]
        )
        assert margin_loss(z, y, gamma) == expect

    def test_kl_identical_is_zero(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((7, 3))
        assert kl_softmax(z, z) == 0.0

    def test_kl_two_class_closed_form(self):
        p_logits = np.array([[np.log(2.0), 0.0]])
        q_logits = np.array([[0.0, np.log(2.0)]])
        # p = (2/3, 1/3), q = (1/3, 2/3): KL = (2/3 - 1/3) ln 2
        assert kl_softmax(p_logits, q_logits) == pytest.approx(np.log(2.0) / 3.0, abs=1e-12)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            zp = rng.standard_normal((3, 4))
            zq = rng.standard_normal((3, 4))
            assert kl_softmax(zp, zq) >= 0.0

    def test_cw_margin_sign(self):
        logits = np.array([[3.0, 0.0], [0.0, 3.0]])
        assert cw_margin(logits, [0, 0]) == pytest.approx(0.0)  # -3 and +3 average

    def test_kl_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        zp = rng.standard_normal((3, 4))
        zq = rng.standard_normal((3, 4))
        step = 1e-6
        grad_q = (lambda p, q: loss_logit_grad("kl", q, ref_logits=p), 1)  # the gradient w.r.t. q
        for grad_fn, which in ((kl_softmax_grad_p, 0), grad_q):
            analytic = grad_fn(zp, zq)
            fd = np.zeros_like(analytic)
            for idx in np.ndindex(fd.shape):
                args_p = [zp.copy(), zp.copy()]
                args_q = [zq.copy(), zq.copy()]
                (args_p if which == 0 else args_q)[0][idx] += step
                (args_p if which == 0 else args_q)[1][idx] -= step
                fd[idx] = (kl_softmax(args_p[0], args_q[0]) - kl_softmax(args_p[1], args_q[1])) / (2 * step)
            assert np.allclose(analytic, fd, atol=1e-8)


    def test_gradients_reject_mismatched_labels_and_logits(self):
        z = np.random.default_rng(9).standard_normal((6, 3))
        for labels in ([0], [0, 1, 2, 0, 1, 2, 0]):
            for kind in ("cross_entropy", "cw_margin"):
                with pytest.raises(ValueError, match=f"one entry per logit row: {len(labels)} for 6"):
                    loss_logit_grad(kind, z, labels)
        for grad in (kl_softmax_grad_p, lambda zp, zq: loss_logit_grad("kl", zq, ref_logits=zp)):
            with pytest.raises(ValueError, match="logit shapes differ"):
                grad(z, z[:1])

    @pytest.mark.parametrize("rows, classes, spread", [(1, 3, 1.0), (6, 4, 1.0), (100, 10, 5.0), (64, 2, 30.0)])
    def test_cross_entropy_and_kl_from_one_log_softmax_each(self, rows, classes, spread):
        # trades_gradients' value and logit gradients, bit for bit the public functions
        rng = np.random.default_rng(rows)
        zp = spread * rng.standard_normal((rows, classes))
        zq = zp + rng.standard_normal((rows, classes))
        y = rng.integers(0, classes, size=rows)
        got = network._cross_entropy_and_kl(zp, zq, y)
        expect = (cross_entropy(zp, y), kl_softmax(zp, zq), loss_logit_grad("cross_entropy", zp, y),
                  kl_softmax_grad_p(zp, zq), loss_logit_grad("kl", zq, ref_logits=zp))
        assert [np.asarray(a).tobytes() for a in got] == [np.asarray(b).tobytes() for b in expect]


# every entry that takes labels, on a 6-row batch of a 3-class net; each returns an array
LABEL_NET = Network.he_init([4, 5, 3], seed=23)
LABEL_X = np.random.default_rng(24).uniform(0, 1, (6, 4))
LABEL_TAPE = forward(LABEL_NET, LABEL_X)
LABEL_Z = LABEL_TAPE.logits
LABEL_SPEC = AttackSpec(0.1, 0.05, steps=2)


def trades_flat(labels):
    loss, grads = trades_gradients(LABEL_NET, LABEL_TAPE, LABEL_TAPE, labels, 1.0)
    return np.concatenate([[loss], *(g.ravel() for g in grads)])


LABEL_ENTRIES = {
    "cross_entropy": lambda y: cross_entropy(LABEL_Z, y),
    "margin_loss": lambda y: margin_loss(LABEL_Z, y, 0.5),
    "accuracy": lambda y: accuracy(LABEL_Z, y),
    "cw_margin": lambda y: cw_margin(LABEL_Z, y),
    "loss_logit_grad cross_entropy": lambda y: loss_logit_grad("cross_entropy", LABEL_Z, y),
    "loss_logit_grad cw_margin": lambda y: loss_logit_grad("cw_margin", LABEL_Z, y),
    "input_gradient": lambda y: input_gradient(LABEL_NET, LABEL_X, "cross_entropy", y),
    "pgd": lambda y: pgd(LABEL_NET, LABEL_X, y, LABEL_SPEC),
    "first_flips": lambda y: first_flips(LABEL_NET, LABEL_X, y, LABEL_SPEC),
    "trades_gradients": trades_flat,
    "Dataset": lambda y: Dataset(LABEL_X, y, 3, "labels").labels,
}
# bad label set for 6 rows of 3 classes -> the pattern of the label rule's message
BAD_LABELS = {
    "too few": ([0, 1], "labels must hold one entry per logit row: 2 for 6"),
    "too many": ([0, 1, 2] * 3, "labels must hold one entry per logit row: 9 for 6"),
    "None": (None, "labels must be a flat integer list"),
    "non-integer": ([0.5] * 6, "labels must be a flat integer list"),
    "2-D": ([[0], [1], [2]] * 2, "labels must be a flat integer list"),
    "out of range": ([0, 1, 2, 3, 1, 0], r"labels must lie in \[0, 3\)"),
}


class TestLabelRule:
    @pytest.mark.parametrize("bad", BAD_LABELS)
    @pytest.mark.parametrize("entry", LABEL_ENTRIES)
    def test_every_entry_rejects_a_bad_label_set(self, entry, bad):
        labels, message = BAD_LABELS[bad]
        with pytest.raises(ValueError, match=message):
            LABEL_ENTRIES[entry](labels)

    @pytest.mark.parametrize("entry", LABEL_ENTRIES)
    def test_integer_valued_floats_are_integers(self, entry):
        y = [0, 1, 2, 2, 1, 0]
        expect = np.asarray(LABEL_ENTRIES[entry](y))
        assert np.asarray(LABEL_ENTRIES[entry](np.array(y, dtype=float))).tobytes() == expect.tobytes()

    def test_a_tie_is_wrong(self):
        logits = np.array([[2.0, 2.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 0.0]])
        assert accuracy(logits, [0, 1, 0]) == pytest.approx(2.0 / 3.0)
        assert margin_loss(logits, [1, 1, 0], gamma=1.0) == pytest.approx(2.0 / 3.0)


class TestBackward:
    def test_zero_weight_single_layer_closed_form(self):
        net = single_layer(np.zeros((3, 5)))
        x = np.random.default_rng(7).uniform(0, 1, (6, 4))
        y = np.array([0, 1, 2, 0, 1, 2])
        tape = forward(net, x)
        got = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, y))[0]

        p = softmax(tape.logits)
        p[np.arange(6), y] -= 1.0
        aug = np.hstack([x, np.ones((6, 1))])
        assert np.allclose(got, (p / 6).T @ aug, atol=1e-14)

    def test_gradcheck_two_layer(self):
        rng = np.random.default_rng(8)
        net = Network.he_init([5, 8, 3], seed=21)
        x = rng.uniform(0, 1, (4, 5))
        y = rng.integers(0, 3, size=4)
        assert away_from_relu_kinks(net, x)

        tape = forward(net, x)
        analytic = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, y))
        oracle = fd_weight_gradients(
            lambda n: cross_entropy(forward(n, x).logits, y), net
        )
        assert max_rel_error(analytic, oracle) < 1e-4

    def test_dead_unit_gradient_exactly_zero(self):
        w1 = np.hstack([np.eye(2), np.zeros((2, 1))])
        w1[0] = [-1.0, -1.0, -1.0]  # unit 0 dead for positive inputs
        net = Network([Layer(w1), Layer(np.ones((2, 3)))])
        x = np.random.default_rng(9).uniform(0.1, 1.0, (5, 2))
        tape = forward(net, x)
        assert np.all((tape.augmented[0] @ w1.T)[:, 0] < 0)
        grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, [0] * 5))
        assert np.array_equal(grads[0][0], np.zeros(3))

    def test_stale_tape(self):
        net = Network.he_init([3, 4, 2], seed=1)
        other = Network.he_init([3, 4, 2], seed=2)
        tape = forward(net, np.ones((1, 3)))
        with pytest.raises(ValueError, match="tape was recorded on a different network"):
            backward(other, tape, np.zeros((1, 2)))

    def test_activation_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        net = Network.he_init([4, 6, 5, 3], seed=31)
        x = rng.uniform(0, 1, (3, 4))
        assert away_from_relu_kinks(net, x)

        tape = forward(net, x)
        for indices in ((2,), (1, 2)):  # one inner activation, and two in one pass

            def scalar(n):
                # quadratic in the chosen hidden activations
                return float(sum((forward(n, x).activations[i] ** 2).sum() for i in indices))

            dacts = {i: 2.0 * tape.activations[i] for i in indices}
            analytic = backward(net, tape, np.zeros_like(tape.logits), dacts)
            oracle = fd_weight_gradients(scalar, net)
            assert max_rel_error(analytic, oracle) < 1e-4
            assert np.array_equal(analytic[2], np.zeros_like(net.layers[2].weight))

    def test_activation_gradients_add_to_the_logit_pass(self):
        rng = np.random.default_rng(14)
        net = Network.he_init([4, 7, 6, 3], seed=33)
        x = rng.uniform(0, 1, (5, 4))
        y = rng.integers(0, 3, size=5)
        tape = forward(net, x)
        dlogits = loss_logit_grad("cross_entropy", tape.logits, y)
        dacts = {1: rng.standard_normal((5, 7)), 2: rng.standard_normal((5, 6))}
        got = backward(net, tape, dlogits, dacts)
        # reference: a logits-only pass plus a zero-logits pass holding only dacts
        reference = [a + b for a, b in zip(
            backward(net, tape, dlogits), backward(net, tape, np.zeros_like(dlogits), dacts)
        )]
        for g, r in zip(got, reference):
            assert np.allclose(g, r, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dacts", [{0: np.ones((2, 3))}, {2: np.ones((2, 2))},
                                       {1: np.ones((2, 5))}, {1: np.ones(4)}])
    def test_activation_gradient_must_match_an_inner_activation(self, dacts):
        net = Network.he_init([3, 4, 2], seed=3)
        tape = forward(net, np.ones((2, 3)))
        with pytest.raises(ValueError, match="does not match an inner activation"):
            backward(net, tape, np.zeros((2, 2)), dacts)


class TestInputGradient:
    def test_linear_net_closed_form(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((3, 5))
        net = single_layer(w)
        x = rng.uniform(0, 1, (4, 4))
        y = np.array([0, 1, 2, 0])
        got = input_gradient(net, x, "cross_entropy", y)

        p = softmax(forward(net, x).logits)
        p[np.arange(4), y] -= 1.0
        assert np.allclose(got, (p / 4) @ w[:, :-1], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = Network.he_init([4, 7, 3], seed=41)
        x = rng.uniform(0, 1, (3, 4))
        y = rng.integers(0, 3, size=3)
        assert away_from_relu_kinks(net, x)
        analytic = input_gradient(net, x, "cross_entropy", y)
        oracle = fd_input_gradient(
            lambda b: cross_entropy(forward(net, b).logits, y), x
        )
        assert max_rel_error([analytic], [oracle]) < 1e-4

    def test_identical_logits_give_zero_kl_gradient_path(self):
        net = single_layer(np.zeros((2, 4)))
        x = np.random.default_rng(13).uniform(0, 1, (3, 3))
        ref = forward(net, x).logits
        got = input_gradient(net, x, "kl", ref_logits=ref)
        assert np.array_equal(got, np.zeros_like(x))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("dims", [(32, 96, 96, 10), (784, 64, 32, 10)])
    def test_bit_identical_to_the_full_reverse_pass(self, kind, dims):
        rng = np.random.default_rng(15)
        net = Network.he_init(list(dims), seed=16)
        x = rng.uniform(0, 1, (100, dims[0]))
        y = rng.integers(0, dims[-1], size=100)
        ref = rng.standard_normal((100, dims[-1]))
        tape = forward(net, x)
        full = full_reverse_input_gradient(net, tape, loss_logit_grad(kind, tape.logits, y, ref))
        got = input_gradient(net, x, kind, y, ref)
        assert got.tobytes() == full.tobytes()

    def test_reverse_side_forms_no_weight_gradient(self, monkeypatch):
        calls = {"hstack": 0, "backward": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return original(*args, **kw)
            monkeypatch.setattr(module, name, wrapper)

        counted(np, "hstack")
        net = Network.he_init([8, 6, 5, 3], seed=17)
        x = np.random.default_rng(18).uniform(0, 1, (4, 8))
        y = [0, 1, 2, 0]
        tape = forward(net, x)
        backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, y), {1: np.ones((4, 6))})
        counted(network, "backward")
        input_gradient(net, x, "cross_entropy", y)
        for norm in NORMS:
            pgd(net, x, y, AttackSpec(0.1, 0.05, steps=2, norm=norm, random_start=True))
        # tapes hold the bias-augmented layer inputs, so no pass appends the
        # column again; the input gradient's reverse pass is not `backward`
        assert calls == {"hstack": 0, "backward": 0}


class TestHomogeneity:
    def test_relu_rescaling_leaves_logits_unchanged(self):
        rng = np.random.default_rng(14)
        w1 = np.hstack([rng.standard_normal((6, 4)), np.zeros((6, 1))])
        w2 = np.hstack([rng.standard_normal((3, 6)), np.zeros((3, 1))])
        net = Network([Layer(w1), Layer(w2)])
        x = rng.uniform(0, 1, (5, 4))
        base = forward(net, x).logits

        alpha = 3.7
        scaled = net.with_weights([alpha * w1, w2 / alpha])
        got = forward(scaled, x).logits
        assert np.allclose(got, base, atol=1e-10)
        assert np.array_equal(got.argmax(axis=1), base.argmax(axis=1))


class TestCheckpoint:
    def test_round_trip_is_byte_identical(self, tmp_path):
        net = Network.he_init([4, 5, 3], seed=51)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_weights_survive_bit_for_bit(self, tmp_path):
        net = Network.he_init([3, 4, 2], seed=52)
        extremes = Layer(np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0]]))
        for original in (net, Network([extremes])):
            path = tmp_path / "ck.json"
            save_checkpoint(original, path)
            loaded = load_checkpoint(path)
            assert [w.tobytes() for w in loaded.weights] == [w.tobytes() for w in original.weights]
            assert checkpoint_text(loaded) == checkpoint_text(original)

    def test_loaded_weights_are_writable_c_contiguous_float64(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(Network.he_init([3, 4, 2], seed=53), path)
        for w in load_checkpoint(path).weights:
            assert w.dtype == np.float64 and w.flags.c_contiguous and w.flags.writeable

    def test_weights_are_base64_little_endian_float64(self):
        net = Network.he_init([3, 4, 2], seed=54)
        doc = json.loads(checkpoint_text(net))
        assert doc["schema_version"] == 2
        assert doc["layer_dims"] == [[4, 4], [2, 5]]
        assert doc["weights"] == [b64_weight(w) for w in net.weights]

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="cannot read checkpoint .*: Expecting property name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_corrupt_checkpoint_raises(self, tmp_path, case):
        doc = json.loads(checkpoint_text(Network.he_init([4, 5, 3], seed=55)))
        CHECKPOINT_CORRUPTIONS[case](doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=CHECKPOINT_CORRUPTION_MESSAGES[case]):
            load_checkpoint(path)

    def test_fixed_key_order(self):
        text = checkpoint_text(Network.he_init([2, 2], seed=1))
        assert text.index('"schema_version"') < text.index('"layer_dims"') < text.index(
            '"activations"'
        ) < text.index('"weights"')


class TestNetworkValidation:
    def test_rejects_non_chaining_dims(self):
        with pytest.raises(ValueError, match="layer dims do not chain: 3 -> 2"):
            Network([Layer(np.ones((3, 4))), Layer(np.ones((2, 3)))])

