import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from conftest import full_reverse_input_gradient

from advlab import attacks, network
from advlab.attacks import NEVER, AttackSpec, _random_offset, first_flips, pgd
from advlab.network import (
    LOSS_KINDS,
    ForwardTape,
    Layer,
    Network,
    accuracy,
    cross_entropy,
    cw_margin,
    forward,
    input_gradient,
    loss_logit_grad,
)


def linear_two_class():
    # logits = (x1, x2): cross-entropy on label 1 ascends x1 and descends x2
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return Network([Layer(w)])


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
        net = Network([Layer(np.zeros((2, 3)))])
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


def reference_pgd(net, x, labels, spec, ref_logits=None, seed=0):
    """PGD as separate steps from the start: the full reverse pass, the step,
    the clip to the ball, then the clip to the box. A random start is
    `x + _random_offset(...)` put through the same two clips."""
    if spec.loss == "kl" and ref_logits is None:
        ref_logits = forward(net, x).logits

    def clip_to_ball(adv):
        if spec.norm == "linf":
            return np.clip(adv, x - spec.epsilon, x + spec.epsilon)
        delta = adv - x
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        return x + delta * np.where(norms > spec.epsilon, spec.epsilon / np.maximum(norms, 1e-300), 1.0)

    adv = x.copy()
    if spec.random_start:
        adv = np.clip(clip_to_ball(x + _random_offset(x.shape, spec, seed)), 0.0, 1.0)
    for _ in range(spec.steps):
        tape = forward(net, adv)
        dlogits = loss_logit_grad(spec.loss, tape.logits, labels, ref_logits)
        grad = full_reverse_input_gradient(net, tape, dlogits)
        if spec.norm == "linf":
            adv = adv + spec.step_size * np.sign(grad)
        else:
            adv = adv + spec.step_size * grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-300)
        adv = np.clip(clip_to_ball(adv), 0.0, 1.0)
    return adv


def check_against_reference(spec, dims, rows, seed=0):
    rng = np.random.default_rng(30)
    net = random_net(seed=31, dims=dims)
    x = rng.uniform(0, 1, (rows, dims[0]))
    x[:, :3] = [0.0, 1.0, 0.05]  # the box binds on these columns
    labels = rng.integers(0, dims[-1], size=rows)
    got = pgd(net, x, labels, spec, seed=seed)
    assert got.tobytes() == reference_pgd(net, x, labels, spec, seed=seed).tobytes()


class TestPgdMatchesReferenceLoop:
    SPECS = pytest.mark.parametrize("spec", [
        AttackSpec(0.15, 0.15, 1),
        AttackSpec(0.15, 0.0375, 20),
        AttackSpec(0.15, 0.0375, 20, loss="cw_margin"),
        AttackSpec(0.15, 0.0375, 10, loss="kl", random_start=True),  # the KL gradient is 0 at the reference
        AttackSpec(0.75, 0.1875, 20, norm="l2"),
        AttackSpec(0.75, 0.1875, 10, norm="l2", loss="kl", random_start=True),
    ], ids=["fgsm", "linf", "cw_margin", "kl", "l2", "l2-kl"])

    @SPECS
    # one layer has no hidden buffer; four layers chain three
    @pytest.mark.parametrize("dims", [(32, 96, 96, 10), (784, 64, 10), (32, 10), (16, 24, 20, 12, 6)])
    def test_bit_identical(self, spec, dims):
        check_against_reference(spec, dims, rows=50)

    @SPECS
    @pytest.mark.parametrize("dims", [(32, 96, 96, 10), (32, 10)])
    def test_one_row_batch_is_bit_identical(self, spec, dims):
        check_against_reference(spec, dims, rows=1)

    @pytest.mark.parametrize("spec", [
        AttackSpec(0.15, 0.0375, 20, random_start=True),
        AttackSpec(0.75, 0.1875, 20, norm="l2", random_start=True),
    ], ids=["linf-start", "l2-start"])
    @pytest.mark.parametrize("dims", [(32, 96, 96, 10), (784, 64, 10)])
    def test_random_start_is_bit_identical(self, spec, dims):
        check_against_reference(spec, dims, rows=50, seed=7)


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
    @pytest.mark.parametrize("random_start", [False, True])
    def test_first_flips_adds_at_most_a_batch(self, norm, random_start):
        # pgd's working set, plus one prefix-sized temporary while rows move
        # and, for l2, first_flips' own copy of the origin
        rng = np.random.default_rng(32)
        net = random_net(seed=33, dims=(784, 64, 10))
        x = rng.uniform(0, 1, (200, 784))
        labels = rng.integers(0, 10, size=200)
        clean = forward(net, x).logits
        eps = 0.3 if norm == "linf" else 2.0
        spec = AttackSpec(eps, eps / 4, 20, norm=norm, random_start=random_start)
        tracemalloc.start()
        try:
            record = first_flips(net, x, labels, spec, seed=3, clean_logits=clean)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * x.nbytes, f"peak {peak / x.nbytes:.2f} batches"
        assert 0 < (record > 0).sum() < len(x)  # rows moved

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_every_step_writes_the_same_buffers(self, monkeypatch, norm, loss):
        steps, seen, alive = 4, {}, []

        def arrays(*values):
            # every array reachable from call arguments and results: tapes, lists, outputs
            for v in values:
                if isinstance(v, ForwardTape):
                    yield from arrays(*v.augmented, v.logits)
                elif isinstance(v, (list, tuple)):
                    yield from arrays(*v)
                elif isinstance(v, np.ndarray):
                    yield v

        def recorded(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kw):
                result = fn(*args, **kw)
                found = list(arrays(*args, *kw.values(), result))
                alive.extend(found)  # a buffer made in one step can not be reused at its address
                seen.setdefault(name, []).append([a.__array_interface__["data"][0] for a in found])
                return result

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((attacks, "_forward"), (attacks, "_input_gradient"), (attacks, "_project_l2"),
                             (network, "_relu_mask"), (np, "matmul"), (np, "sign")):
            recorded(module, name)
        rng = np.random.default_rng(36)
        net = random_net(seed=37, dims=(6, 12, 10, 4))
        x = rng.uniform(0, 1, (9, 6))
        eps = 0.2 if norm == "linf" else 0.8
        ref = rng.standard_normal((9, 4))
        spec = AttackSpec(eps, eps / 4, steps, norm=norm, loss=loss, random_start=loss == "kl")
        adv = pgd(net, x, rng.integers(0, 4, size=9), spec, ref_logits=ref)
        if spec.random_start and norm == "l2":
            # the start is projected in place in the tape's input buffer, with the steps' other buffers
            start = seen["_project_l2"].pop(0)
            assert start[0] == start[1] and start[1:] == seen["_project_l2"][0][1:]
        per_step = {"_forward": 1, "_input_gradient": 1, "_relu_mask": 2, "matmul": 6,
                    "_project_l2" if norm == "l2" else "sign": 1}
        assert {name: len(calls) for name, calls in seen.items()} == {k: steps * n for k, n in per_step.items()}
        for name, calls in seen.items():
            n = per_step[name]
            assert all(calls[i:i + n] == calls[:n] for i in range(0, len(calls), n)), f"{name} saw new buffers"
        # the forward pass reads the iterate from the buffer that pgd returns
        assert adv.__array_interface__["data"][0] == seen["_forward"][0][0]

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

    @pytest.mark.parametrize("steps", [1, 3])  # the last step's iterate is checked too
    def test_non_finite_iterate_is_rejected(self, steps):
        # an l2 step along an infinite gradient leaves the iterate nan
        net = Network([Layer(np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]))])
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(ValueError, match="batch contains non-finite entries")):
            pgd(net, np.array([[0.5, 0.5]]), [1], AttackSpec(0.1, 0.05, steps, norm="l2"))


def pgd_start(origin, spec, seed):
    """pgd's projected random start: one step on a network whose input gradient is 0 adds 0 to it."""
    net = Network([Layer(np.zeros((2, origin.shape[1] + 1)))])
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


def misclassified(logits, labels):
    """`accuracy`'s rule row by row: the true class's logit does not beat every other one."""
    others = np.where(np.arange(logits.shape[1]) == labels[:, None], -np.inf, logits).max(axis=1)
    wrong = logits[np.arange(len(labels)), labels] <= others
    assert accuracy(logits, labels) == 1.0 - np.mean(wrong)
    return wrong


def reference_first_flips(net, x, labels, spec, seed):
    """Each row's first misclassified iterate, from `pgd` with steps=1..S on the
    whole batch; iterate 0 is the clean row and, after a random start, the start."""
    record = np.where(misclassified(forward(net, x).logits, labels), 0, NEVER)
    if spec.random_start:
        record[(record == NEVER) & misclassified(forward(net, pgd_start(x, spec, seed)).logits, labels)] = 0
    for t in range(1, spec.steps + 1):
        adv = pgd(net, x, labels, dataclasses.replace(spec, steps=t), seed=seed)
        record[(record == NEVER) & misclassified(forward(net, adv).logits, labels)] = t
    return record


def traced_first_flips(monkeypatch, net, x, labels, spec, seed):
    """first_flips' record, and per forward pass of its attack the batch rows it
    held and their iterates.

    Rows leave in order and only when scored, so the pass that reads
    iterate t holds the attacked (clean-right) rows whose record is NEVER
    or at least t, in batch order.
    """
    iterates = []
    original = attacks._forward

    def spy(tape, *args, **kw):
        iterates.append(tape.activations[0].copy())
        return original(tape, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(attacks, "_forward", spy)
        record = first_flips(net, x, labels, spec, seed=seed)
    attacked = ~misclassified(forward(net, x).logits, labels)
    held = [np.flatnonzero(attacked & ((record == NEVER) | (record >= t))) for t in range(spec.steps + 1)]
    held = [rows for rows in held if len(rows)]  # the attack stops when no row is left
    assert [len(a) for a in iterates] == [len(rows) for rows in held]
    return record, list(zip(held, iterates))


def flip_case(dims, rows, seed=50):
    """A fixed-seed net, a batch, and labels that are its predictions except on every fourth row."""
    rng = np.random.default_rng(seed + rows)
    net = random_net(seed=seed + len(dims), dims=dims)
    x = rng.uniform(0, 1, (rows, dims[0]))
    labels = forward(net, x).logits.argmax(axis=1)
    labels[::4] = rng.integers(0, dims[-1], size=len(labels[::4]))  # some rows are clean-wrong
    return net, x, labels


FLIP_SPECS = [AttackSpec(eps, eps / 4, 8, norm=norm, loss=loss, random_start=start)
              for norm, eps in (("linf", 0.1), ("l2", 0.5)) for loss in LOSS_KINDS for start in (False, True)
              if start or loss != "kl"]  # AttackSpec refuses a kl spec without a random start
FLIP_IDS = [f"{s.norm}-{s.loss}-{'start' if s.random_start else 'origin'}" for s in FLIP_SPECS]
FLIP_DIMS = [(32, 10), (32, 96, 96, 10), (16, 24, 20, 12, 6)]


class TestFirstFlips:
    @pytest.mark.parametrize("spec", FLIP_SPECS, ids=FLIP_IDS)
    @pytest.mark.parametrize("dims", FLIP_DIMS)
    @pytest.mark.parametrize("rows", [1, 300])
    def test_matches_pgd_scored_at_every_step(self, spec, dims, rows):
        net, x, labels = flip_case(dims, rows)
        got = first_flips(net, x, labels, spec, seed=7)
        assert got.tobytes() == reference_first_flips(net, x, labels, spec, seed=7).tobytes()

    def test_the_cases_flip_at_every_kind_of_step(self):
        # the comparison above is not vacuous: rows break at 0, at a step and never
        seen = set()
        for spec in FLIP_SPECS:
            record = first_flips(*flip_case((32, 96, 96, 10), 300), spec, seed=7)
            seen |= {"start" if r == 0 else "never" if r == NEVER else "step" for r in record}
        assert seen == {"start", "step", "never"}

    @pytest.mark.parametrize("spec", FLIP_SPECS, ids=FLIP_IDS)
    @pytest.mark.parametrize("dims", [(32, 10), (16, 24, 20, 12, 6)])
    def test_every_iterate_stays_in_the_ball_and_the_box(self, monkeypatch, spec, dims):
        net, x, labels = flip_case(dims, 300)
        x[:, :3] = [0.0, 1.0, 0.05]  # the box binds on these columns
        _, passes = traced_first_flips(monkeypatch, net, x, labels, spec, seed=8)
        for rows, iterate in passes:
            assert np.all(iterate >= 0.0) and np.all(iterate <= 1.0)
            delta = iterate - x[rows]
            if spec.norm == "linf":
                assert np.abs(delta).max() <= spec.epsilon * (1 + 1e-12)
            else:
                assert np.linalg.norm(delta, axis=1).max() <= spec.epsilon * (1 + 1e-12)

    @pytest.mark.parametrize("spec", FLIP_SPECS, ids=FLIP_IDS)
    @pytest.mark.parametrize("dims", FLIP_DIMS)
    def test_without_a_drop_the_last_iterate_is_pgds(self, monkeypatch, spec, dims):
        net, x, _ = flip_case(dims, 300)
        labels = forward(net, x).logits.argmax(axis=1)
        tiny = dataclasses.replace(spec, epsilon=1e-9, step_size=2.5e-10)
        adv = pgd(net, x, labels, tiny, seed=9)
        record, passes = traced_first_flips(monkeypatch, net, x, labels, tiny, seed=9)
        assert (record == NEVER).all()
        rows, last = passes[-1]
        assert len(passes) == tiny.steps + 1 and len(rows) == len(x)
        assert last.tobytes() == adv.tobytes()

    @pytest.mark.parametrize("spec", FLIP_SPECS, ids=FLIP_IDS)
    @pytest.mark.parametrize("dims", FLIP_DIMS)
    def test_after_drops_the_last_iterate_is_pgds_within_rounding(self, monkeypatch, spec, dims):
        # a GEMM's row can depend on how many rows it is given, so the
        # iterates of a shorter working set may move in the last bits
        net, x, labels = flip_case(dims, 300)
        adv = pgd(net, x, labels, spec, seed=10)
        record, passes = traced_first_flips(monkeypatch, net, x, labels, spec, seed=10)
        rows, last = passes[-1]
        survivors = record[rows] == NEVER
        assert 0 < survivors.sum() < len(x)
        assert np.abs(last[survivors] - adv[rows[survivors]]).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("spec", FLIP_SPECS, ids=FLIP_IDS)
    @pytest.mark.parametrize("dims", FLIP_DIMS)
    def test_without_compaction_every_row_takes_pgds_steps(self, monkeypatch, spec, dims):
        net, x, labels = flip_case(dims, 300)
        iterates = []
        original = attacks._forward
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "_forward", lambda tape, *a: iterates.append(tape.activations[0].copy())
                          or original(tape, *a))
            record = first_flips(net, x, labels, spec, seed=11, compact=False)
        assert record.tobytes() == reference_first_flips(net, x, labels, spec, seed=11).tobytes()
        assert [len(a) for a in iterates] == [len(x)] * (spec.steps + 1)
        assert iterates[-1].tobytes() == pgd(net, x, labels, spec, seed=11).tobytes()

    @pytest.mark.parametrize("batch, labels", [
        ([[0.5, np.nan]], [0]), ([[0.5, np.inf]], [0]),
        ([[0.5, 0.5], [0.2, 0.1]], [0]), ([[0.5, 0.5]], [0, 1]), ([[0.5, 0.5]], [2]),
        ([[0.5, 0.5]], [-1]), ([[0.5, 0.5]], [[0]]), ([0.5, 0.5], [0]), ([[0.5, 0.5, 0.5]], [0]),
    ], ids=["nan", "inf", "short-labels", "long-labels", "label-too-big", "negative-label",
            "2d-labels", "1d-batch", "wide-batch"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "cw_margin"])
    def test_bad_inputs_raise_pgds_errors(self, batch, labels, loss):
        net = linear_two_class()
        spec = AttackSpec(0.1, 0.05, 2, loss=loss)
        with pytest.raises(ValueError) as expected:
            pgd(net, batch, labels, spec)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            first_flips(net, batch, labels, spec)

    def test_a_non_finite_iterate_raises_pgds_error(self):
        # an l2 step along an infinite cw_margin gradient leaves the iterate nan
        net = Network([Layer(np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]))])
        spec = AttackSpec(0.1, 0.05, 3, norm="l2", loss="cw_margin")
        for attack in (pgd, first_flips):
            with (np.errstate(over="ignore", invalid="ignore"),
                  pytest.raises(ValueError, match="^batch contains non-finite entries$")):
                attack(net, np.array([[0.5, 0.5]]), [0], spec)

    def test_clean_wrong_rows_are_broken_at_zero_and_never_attacked(self, monkeypatch):
        net = linear_two_class()
        x = np.array([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]])  # row 2 ties: wrong under either label
        passes = []
        original = attacks._forward
        monkeypatch.setattr(attacks, "_forward", lambda tape, *a: passes.append(len(tape.logits)) or original(tape, *a))
        record = first_flips(net, x, [0, 0, 0], AttackSpec(0.01, 0.005, 4))
        assert record.tolist() == [0, NEVER, 0]
        assert passes == [1] * 5  # row 1 alone: the four steps and the last iterate's scoring


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

    def test_a_kl_spec_needs_a_random_start(self):
        # at its reference the KL gradient is exactly 0, and sign(0) = 0: the attack would never move
        for norm, eps in (("linf", 0.1), ("l2", 0.5)):
            spec = AttackSpec(eps, eps / 4, 8, norm=norm)
            with pytest.raises(ValueError, match="^a kl attack needs random_start: its gradient at the "
                                                 "reference logits is 0$"):
                dataclasses.replace(spec, loss="kl")
            assert dataclasses.replace(spec, loss="kl", random_start=True).loss == "kl"

    def test_zero_epsilon_is_noop(self):
        net = random_net(seed=20)
        x = np.random.default_rng(21).uniform(0, 1, (3, 6))
        spec = AttackSpec(epsilon=0.0, step_size=0.1, steps=4)
        assert np.array_equal(pgd(net, x, [0, 1, 2], spec), x)
