"""Deterministic RNG streams, the training passes and their backward,
the tape, Adam, and the graph-tape reference and gradient checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from oracles import GraphTape, finite_difference_check, graph_loss_and_grads

import dprw.numcore
from dprw.numcore import (
    AdamState,
    NonFiniteError,
    Rng,
    Tape,
    adam_step,
    clip_rows_l1,
    clip_rows_l1_vjp,
    gru_cell,
    gru_pass,
    sigmoid,
    softmax_cross_entropy,
    split_gru_weights,
)

# -- Rng -----------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(42).derive("x").random(16)
    b = Rng(42).derive("x").random(16)
    np.testing.assert_array_equal(a, b)


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(1).random(8), Rng(2).random(8))


def test_rng_substreams_are_order_independent():
    r = Rng(7)
    direct = r.derive("a").random(8)
    r2 = Rng(7)
    r2.derive("b").random(100)  # consuming a sibling stream first
    r2.random(3)  # and the root stream
    np.testing.assert_array_equal(r2.derive("a").random(8), direct)


def test_rng_paths_do_not_collide_by_concatenation():
    r = Rng(0)
    assert not np.array_equal(r.derive("ab").random(4), r.derive("a", "b").random(4))
    assert not np.array_equal(r.derive("a", 1).random(4), r.derive("a1").random(4))


def test_rng_nested_derive_matches_flat_path():
    r = Rng(3)
    np.testing.assert_array_equal(
        r.derive("a").derive("b").random(4), r.derive("a", "b").random(4)
    )


def test_rng_draws_are_pinned():
    assert Rng(42).derive("x").random(4).tolist() == [
        0.23161295540237015, 0.4873998642893984, 0.13442057995113255, 0.28781333273020326,
    ]
    assert Rng(3).derive("rewrite", "train", 0).random(4).tolist() == [
        0.791451157294931, 0.9268650154970501, 0.5235678979139854, 0.6426730812229813,
    ]
    assert Rng(3).derive("rewrite").derive("train", 0).normal(0, 1, 2).tolist() == [
        -0.6174622771788212, -0.6230289903865702,
    ]
    assert Rng(5).integers(0, 1000, 3).tolist() == [878, 250, 753]


def test_rng_seeds_a_generator_only_on_its_first_draw(monkeypatch):
    seeded = []
    real = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda key: seeded.append(key) or real(key))
    leaf = Rng(3).derive("rewrite").derive("train", 0)
    assert seeded == []
    first = leaf.random(2)
    assert leaf.random(2).tolist() != first.tolist() and len(seeded) == 1


def test_rng_rejects_non_int_str_keys():
    with pytest.raises(TypeError):
        Rng(0).derive(1.5)
    with pytest.raises(TypeError):
        Rng(0).derive(("tuple",))


def test_rng_permutation_and_choice():
    perm = Rng(5).permutation(10)
    assert sorted(perm.tolist()) == list(range(10))
    seq = ["a", "b", "c"]
    assert Rng(5).choice(seq) in seq


def test_rng_integers_range():
    vals = Rng(9).integers(2, 7, size=200)
    assert vals.min() >= 2 and vals.max() < 7


# -- forward semantics: the graph tape and the passes ------------------------------


def test_matmul_add_bias_forward():
    t = GraphTape()
    a = t.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = t.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = t.leaf(np.array([10.0, 20.0]))
    out = t.add(t.matmul(a, w), b)
    np.testing.assert_allclose(out.value, [[11.0, 22.0], [13.0, 24.0]])


def test_shape_mismatches_raise():
    t = GraphTape()
    a = t.leaf(np.ones((2, 3)))
    b = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.matmul(a, b)
    with pytest.raises(ValueError):
        t.add(a, b)
    for z, targets in ((np.ones((2, 3)), np.array([0])), (np.ones(3), np.array([0, 1, 2]))):
        with pytest.raises(ValueError, match="expects"):
            softmax_cross_entropy(z, targets, ignore_id=-1)
    with pytest.raises(ValueError, match="out of range"):
        softmax_cross_entropy(np.ones((2, 3)), np.array([0, 3]), ignore_id=-1)
    with pytest.raises(ValueError, match="out of range"):
        softmax_cross_entropy(np.ones((2, 3)), np.array([-2, 1]), ignore_id=-1)


def test_non_finite_values_are_rejected():
    t = GraphTape()
    with pytest.raises(NonFiniteError):
        t.leaf(np.array([1.0, np.inf]))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="softmax_cross_entropy"):
        softmax_cross_entropy(np.array([[np.inf, 0.0]]), np.array([1]), ignore_id=-1)


def test_leaves_are_checked_but_only_ops_are_recorded():
    t = GraphTape()
    a = t.leaf(np.ones((2, 2)), name="a")
    assert t.nodes == [] and a.name == "a"
    out = t.matmul(a, a)
    assert t.nodes == [out]


def test_sigmoid_is_stable_for_large_inputs():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1e9, -1.0, 0.0, 1.0, 1e9]))
    np.testing.assert_allclose(out, [0.0, 1.0 / (1.0 + np.e), 0.5, 1.0 / (1.0 + np.exp(-1.0)), 1.0])


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-7), (np.float64, 1e-15)])
def test_sigmoid_is_finite_and_within_rounding_of_expit(dtype, tol):
    x = np.concatenate([[-np.inf, -1e4, 1e4, np.inf, 0.0], np.linspace(-60.0, 60.0, 4801)]).astype(dtype)
    with np.errstate(all="raise"):
        out = sigmoid(x)
    assert out.dtype == dtype and np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))
    np.testing.assert_array_equal(out[:5], [0.0, 0.0, 1.0, 1.0, 0.5])
    assert np.abs(out.astype(np.float64) - expit(x.astype(np.float64))).max() <= tol


def test_row_select_gathers_rows():
    t = GraphTape()
    table = t.leaf(np.arange(6.0).reshape(3, 2))
    out = t.row_select(table, [2, 0, 2])
    np.testing.assert_array_equal(out.value, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ValueError):
        t.row_select(table, [3])


def test_clip_rows_l1_function_validates_and_reports_scale():
    x = np.array([[0.5, -0.25], [4.0, 0.0]])
    out, norms, scale = clip_rows_l1(x, 1.0)
    np.testing.assert_array_equal(norms, [0.75, 4.0])
    np.testing.assert_array_equal(scale, [1.0, 0.25])
    np.testing.assert_array_equal(out, [[0.5, -0.25], [1.0, 0.0]])
    with pytest.raises(ValueError):
        clip_rows_l1(x, 0.0)
    with pytest.raises(ValueError):
        clip_rows_l1(x[0], 1.0)


def test_clip_rows_l1_inside_rows_pass_through_bit_exact():
    x = np.array([[0.25, -0.5, 0.125], [3.0, -3.0, 3.0]])
    out = clip_rows_l1(x, 2.0)[0]
    assert np.array_equal(out[0], x[0])  # norm 0.875 < 2, untouched
    assert np.isclose(np.abs(out[1]).sum(), 2.0)
    np.testing.assert_allclose(out[1] / np.abs(out[1]).sum() * 9.0, x[1])


def test_softmax_cross_entropy_matches_log_softmax():
    z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    targets = np.array([2, 1])
    loss, _ = softmax_cross_entropy(z, targets, ignore_id=-1)
    expected = np.mean(
        [-z[i, targets[i]] + np.log(np.exp(z[i]).sum()) for i in range(2)]
    )
    assert np.isclose(float(loss), expected)


def test_softmax_cross_entropy_uniform_logits_is_log_vocab():
    v = 11
    loss, _ = softmax_cross_entropy(np.zeros((4, v)), np.array([0, 1, 2, 3]), ignore_id=0)
    # rows with target 0 are ignored; remaining rows each cost ln(v)
    assert np.isclose(float(loss), np.log(v))


def test_softmax_cross_entropy_ignores_masked_rows():
    z = np.array([[5.0, 0.0], [0.0, 5.0], [7.0, 7.0]])
    with_pad, backward = softmax_cross_entropy(z, np.array([0, 1, -1]), ignore_id=-1)
    without, backward_without = softmax_cross_entropy(z[:2], np.array([0, 1]), ignore_id=-1)
    assert np.isclose(float(with_pad), float(without))
    grad = backward(np.float64(1.0))
    np.testing.assert_array_equal(grad[2], [0.0, 0.0])
    np.testing.assert_array_equal(grad[:2], backward_without(np.float64(1.0)))


def test_softmax_cross_entropy_all_ignored_raises():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 0]), ignore_id=0)


# -- backward semantics: the graph tape, the tape and the passes ------------------


def _ce_grad(z, targets):
    """d mean-CE / d logits."""
    return softmax_cross_entropy(z, targets, ignore_id=-1)[1](np.float64(1.0))


def test_gradient_accumulates_across_consumers():
    t = GraphTape()
    x = t.leaf(np.array([[2.0, -1.0]]))
    t.backward(t.softmax_cross_entropy(t.add(x, x), np.array([0]), ignore_id=-1))
    # both consumers of x pass on d/d(2x)
    np.testing.assert_array_equal(x.grad, 2.0 * _ce_grad(np.array([[4.0, -2.0]]), np.array([0])))


def test_backward_requires_scalar_and_runs_once():
    t = GraphTape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward(x)
    s = t.softmax_cross_entropy(x, np.array([0, 1]), ignore_id=-1)
    t.backward(s)
    with pytest.raises(RuntimeError):
        t.backward(s)
    # the package's tape runs its steps newest first, each on the last one's output
    calls = []
    tape = Tape()
    tape.record("first", lambda g: calls.append(("first", g)))
    tape.record("second", lambda g: calls.append(("second", g)) or g + 1)
    tape.backward(1)
    assert [name for name, _ in tape.nodes] == ["first", "second"]
    assert calls == [("second", 1), ("first", 2)]
    with pytest.raises(RuntimeError):
        tape.backward(1)
    assert len(calls) == 2


def test_row_select_gradient_accumulates_duplicate_ids():
    table = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    targets, ids = np.array([0, 1, 1]), np.array([1, 1, 2])
    g = _ce_grad(table[ids], targets)
    t = GraphTape()
    leaf = t.leaf(table)
    t.backward(t.softmax_cross_entropy(t.row_select(leaf, ids), targets, ignore_id=-1))
    np.testing.assert_array_equal(leaf.grad, [[0.0, 0.0], g[0] + g[1], g[2]])
    # a pass sums its step gradients per distinct row: one GEMM with a one-hot matrix
    x, h0, w = gru_inputs(Rng(17), 2, 2, 2, 3)
    states, backward = gru_pass(x[:3], ids[[0, 1, 2, 1]], h0, [w[k] for k in GRU_GATES], [2, 2], all_states=True)
    dx = backward(np.ones_like(states))[0]
    assert dx.shape == (3, 2) and not dx[0].any() and dx[1].any() and dx[2].any()


def _gradcheck(loss, grads, params, rtol=1e-4):
    report = finite_difference_check(loss, grads, params, rtol=rtol)
    assert report.ok, f"worst {report.worst_param}: {report.max_rel_error}"


def _gradcheck_chain(forward, params, rtol=1e-4):
    """``forward(params) -> (loss, backward)``, where ``backward()`` gives
    the gradient dict, checked against finite differences."""
    _gradcheck(lambda p: float(forward(p)[0]), forward(params)[1](), params, rtol)


def test_gradcheck_dense_layer():
    rng = Rng(11)
    params = {
        "x": rng.derive("x").normal(0.0, 1.0, (3, 4)),
        "w": rng.derive("w").normal(0.0, 1.0, (4, 2)),
        "b": rng.derive("b").normal(0.0, 1.0, 2),
    }
    targets = np.array([1, 0, -1])

    def build(t, lv):
        return t.softmax_cross_entropy(t.add(t.matmul(lv["x"], lv["w"]), lv["b"]), targets, ignore_id=-1)

    def loss(p):
        t = GraphTape()
        return float(build(t, {k: t.leaf(v) for k, v in p.items()}).value)

    _gradcheck(loss, graph_loss_and_grads(build, params)[1], params)


GRU_GATES = ("wz", "bz", "wr", "br", "wh", "bh")


def gru_params(rng: Rng, e: int, h: int) -> dict:
    return {
        name: rng.derive(name).normal(0.0, 1.0, (e + h, h) if name.startswith("w") else h)
        for name in GRU_GATES
    }


def gru_inputs(rng: Rng, steps: int, b: int, e: int, h: int):
    x = rng.derive("x").normal(0.0, 1.0, (steps * b, e))
    h0 = rng.derive("h0").normal(0.0, 0.5, (b, h))
    return x, h0, gru_params(rng, e, h)


def active_counts(lengths, steps: int) -> list[int]:
    """Rows still in their sentence at each step, for lengths sorted longest first."""
    return [int(np.sum(np.asarray(lengths) > t)) for t in range(steps)]


def test_gru_pass_forward_is_gru_cell():
    rng = Rng(15)
    x, h0, w = gru_inputs(rng, 3, 2, 3, 4)
    inv = np.arange(6)
    active = [2, 1, 0]  # row 0 takes two steps, row 1 one
    wx, bias, u = split_gru_weights([w[k] for k in GRU_GATES])
    xp = x @ wx
    xp += bias
    xp = xp.reshape(3, 2, 12)
    h, states = h0.copy(), []
    for step, n in enumerate(active):
        h[:n] = gru_cell(xp[step, :n], h[:n], u)[0]
        states.append(h[:n].copy())
    np.testing.assert_array_equal(h[1], gru_cell(xp[0, 1:], h0[1:], u)[0][0])  # a finished row keeps its state
    for all_states, expected in ((False, h), (True, np.concatenate(states))):
        out, _ = gru_pass(x, inv, h0, [w[k] for k in GRU_GATES], active, all_states=all_states)
        assert out.tobytes() == expected.tobytes()


def test_gru_pass_checks_shapes():
    rng = Rng(15)
    x, h0, w = gru_inputs(rng, 3, 2, 3, 4)
    weights = [w[k] for k in GRU_GATES]
    inv = np.arange(6)
    with pytest.raises(ValueError):
        gru_pass(x, inv[:5], h0, weights, [2, 2, 2])
    with pytest.raises(ValueError):
        gru_pass(x, inv.reshape(3, 2), h0, weights, [2, 2, 2])
    with pytest.raises(ValueError):
        gru_pass(x[0], inv, h0, weights, [2, 2, 2])
    with pytest.raises(ValueError):
        gru_pass(x, inv, h0, weights[:-1] + [np.zeros(5)], [2, 2, 2])
    for active in ([2, 2], [1, 1, 1], [2, 1, 2], [2, 2, -1], [3, 2, 2]):
        with pytest.raises(ValueError, match="active counts"):
            gru_pass(x, inv, h0, weights, active)


def test_gru_pass_checks_every_state(monkeypatch):
    real = dprw.numcore.gru_cell
    calls = []

    def poisoned(xp, h, u, out=None):
        h_new, cache = real(xp, h, u, out=out)
        calls.append(1)
        if len(calls) == 2:
            h_new[0, 0] = np.nan
        return h_new, cache

    monkeypatch.setattr(dprw.numcore, "gru_cell", poisoned)
    x, h0, w = gru_inputs(Rng(15), 3, 2, 3, 4)
    with pytest.raises(NonFiniteError, match="gru_pass"):
        gru_pass(x, np.arange(6), h0, [w[k] for k in GRU_GATES], [2, 2, 1])


def test_gru_pass_gradients_are_computed_lazily_and_once(monkeypatch):
    calls = []
    real = dprw.numcore.gru_cell_vjp

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dprw.numcore, "gru_cell_vjp", counting)
    x, h0, w = gru_inputs(Rng(16), 3, 2, 2, 3)
    states, backward = gru_pass(x, np.arange(6), h0, [w[k] for k in GRU_GATES], [2, 2, 1], all_states=True)
    assert states.shape == (5, 3)  # the active rows only
    loss, ce_backward = softmax_cross_entropy(states, np.array([0, 2, 1, 1, 2]), ignore_id=-1)
    assert calls == []  # a forward-only evaluation computes no gradients
    dx, dh0, dweights = backward(ce_backward(np.float64(1.0)))
    assert calls == [1, 1, 1]  # one backward step per time step
    assert dx.shape == x.shape and dh0.shape == h0.shape
    assert [d.shape for d in dweights] == [w[k].shape for k in GRU_GATES]


def test_gradcheck_gru_pass_with_pad_rows():
    # an encoder pass (rows sorted longest first: rows 1 and 2 end after
    # two steps) feeds a decoder pass that returns the state of every row
    # whose next target is real
    rng = Rng(12)
    params = {
        "table": rng.derive("table").normal(0.0, 1.0, (5, 3)),
        "h0": rng.derive("h0").normal(0.0, 0.5, (3, 4)),
        "out_w": rng.derive("out_w").normal(0.0, 1.0, (4, 5)),
        **gru_params(rng, 3, 4),
        **{f"dec_{k}": v for k, v in gru_params(rng.derive("dec"), 3, 4).items()},
    }
    ids = np.array([[1, 2, 4], [4, 3, 1], [3, 0, 0]])  # (T, B); 0 where a row has ended
    active = active_counts([3, 2, 2], 3)
    targets = np.array([4, 3, 1, 3])  # step 0: every row; step 1: row 0
    enc_ids, dec_ids = ids.reshape(-1), ids[:2].reshape(-1)

    def forward(p):
        h, enc_back = gru_pass(p["table"], enc_ids, p["h0"], [p[k] for k in GRU_GATES], active)
        dec_weights = [p[f"dec_{k}"] for k in GRU_GATES]
        states, dec_back = gru_pass(p["table"], dec_ids, h, dec_weights, active[1:], all_states=True)
        loss, ce_back = softmax_cross_entropy(states @ p["out_w"], targets, ignore_id=-1)

        def backward():
            g = ce_back(np.float64(1.0))
            dx_dec, dh, dec = dec_back(g @ p["out_w"].T)
            dx_enc, dh0, enc = enc_back(dh)
            return {
                "table": dx_dec + dx_enc,
                "h0": dh0,
                "out_w": states.T @ g,
                **dict(zip(GRU_GATES, enc)),
                **{f"dec_{k}": d for k, d in zip(GRU_GATES, dec)},
            }

        return loss, backward

    _gradcheck_chain(forward, params)


def test_gradcheck_clip_rows_both_regimes():
    # one row inside the ball, one clipped: exercises the rank-one term
    params = {"x": np.array([[0.2, -0.3, 0.1], [2.0, -1.5, 1.0]])}

    def forward(p):
        clipped, norms, scale = clip_rows_l1(p["x"], 1.0)
        assert (scale == 1.0).any() and (scale < 1.0).any()
        loss, ce_back = softmax_cross_entropy(clipped, np.array([0, 2]), ignore_id=-1)
        return loss, lambda: {"x": clip_rows_l1_vjp(ce_back(np.float64(1.0)), p["x"], 1.0, norms, scale)}

    _gradcheck_chain(forward, params)


def test_gradcheck_cross_entropy_with_ignored_rows():
    rng = Rng(13)
    params = {"z": rng.derive("z").normal(0.0, 2.0, (5, 4))}
    targets = np.array([0, 3, -1, 2, -1])

    def forward(p):
        loss, ce_back = softmax_cross_entropy(p["z"], targets, ignore_id=-1)
        return loss, lambda: {"z": ce_back(np.float64(1.0))}

    _gradcheck_chain(forward, params)


def test_gradcheck_row_select():
    # a pass takes its step inputs as rows of the table, some of them twice
    rng = Rng(14)
    _, h0, w = gru_inputs(rng, 2, 2, 3, 2)
    params = {"table": rng.derive("t").normal(0.0, 1.0, (4, 3))}
    ids = np.array([0, 2, 2, 1])

    def forward(p):
        states, back = gru_pass(p["table"], ids, h0, [w[k] for k in GRU_GATES], [2, 2], all_states=True)
        loss, ce_back = softmax_cross_entropy(states, np.array([1, 0, 1, 1]), ignore_id=-1)
        return loss, lambda: {"table": back(ce_back(np.float64(1.0)))[0]}

    _gradcheck_chain(forward, params)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gradcheck_random_two_layer_models(seed):
    rng = Rng(seed).derive("prop")
    dims = [int(d) for d in rng.derive("dims").integers(2, 5, size=3)]
    steps = int(rng.derive("steps").integers(1, 4))
    all_states = bool(rng.derive("all").integers(0, 2))
    lengths = [steps, int(rng.derive("len").integers(1, steps + 1))]
    active = active_counts(lengths, steps)
    inv = rng.derive("inv").integers(0, 3, size=steps * 2)
    params = {
        "x": rng.derive("x").normal(0.0, 1.0, (3, dims[0])),
        "h": rng.derive("h").normal(0.0, 1.0, (2, dims[1])),
        "w2": rng.derive("w2").normal(0.0, 1.0, (dims[1], dims[2])),
        "b": rng.derive("b").normal(0.0, 1.0, dims[2]),
        **gru_params(rng.derive("gru"), dims[0], dims[1]),
    }
    targets = np.arange(sum(active) if all_states else 2) % dims[2]

    def forward(p):
        hidden, gru_back = gru_pass(p["x"], inv, p["h"], [p[k] for k in GRU_GATES], active, all_states=all_states)
        loss, ce_back = softmax_cross_entropy(hidden @ p["w2"] + p["b"], targets, ignore_id=-1)

        def backward():
            g = ce_back(np.float64(1.0))
            dx, dh, dweights = gru_back(g @ p["w2"].T)
            return {"x": dx, "h": dh, "w2": hidden.T @ g, "b": g.sum(axis=0), **dict(zip(GRU_GATES, dweights))}

        return loss, backward

    _gradcheck_chain(forward, params)


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 6),
    steps=st.integers(1, 6),
    all_states=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_packed_gru_pass_equals_the_masked_loop(b, steps, all_states, seed):
    # the packed pass against the graph tape's pass, which steps every row
    # and keeps a row's state where the (T, B) mask is False, in float64:
    # an encoder (final states) or a decoder (the active rows' states)
    rng = Rng(seed)
    lengths = np.sort(rng.derive("len").integers(1, steps + 1, size=b))[::-1]
    lengths[0] = steps
    active = active_counts(lengths, steps)
    live = np.arange(b) < np.array(active)[:, None]
    e, h, v, u = 3, 4, 5, 4
    inv = rng.derive("inv").integers(0, u, size=steps * b)
    params = {
        "x": rng.derive("x").normal(0.0, 1.0, (u, e)),
        "h0": rng.derive("h0").normal(0.0, 0.5, (b, h)),
        "out_w": rng.derive("out_w").normal(0.0, 1.0, (h, v)),
        **gru_params(rng.derive("gru"), e, h),
    }
    targets = rng.derive("targets").integers(0, v, size=(steps if all_states else 1) * b)
    live_targets = targets[live.reshape(-1)] if all_states else targets

    hidden, back = gru_pass(params["x"], inv, params["h0"], [params[k] for k in GRU_GATES], active, all_states)
    loss, ce_back = softmax_cross_entropy(hidden @ params["out_w"], live_targets, ignore_id=-1)
    g = ce_back(np.float64(1.0))
    dx, dh0, dweights = back(g @ params["out_w"].T)
    grads = {"x": dx, "h0": dh0, "out_w": hidden.T @ g, **dict(zip(GRU_GATES, dweights))}

    def build(tape, leaves):
        rows = tape.row_select(leaves["x"], inv)
        weights = [leaves[k] for k in GRU_GATES]
        out = tape.gru_pass(rows, leaves["h0"], weights, mask=live, all_states=all_states)
        masked = np.where(live.reshape(-1), targets, -1) if all_states else targets
        return tape.softmax_cross_entropy(tape.matmul(out, leaves["out_w"]), masked, ignore_id=-1)

    expected_loss, expected = graph_loss_and_grads(build, params)
    assert float(loss) == pytest.approx(float(expected_loss), rel=1e-13)
    for name, grad in expected.items():
        scale = max(float(np.abs(grad).max()), 1e-300)
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12 * scale, err_msg=name)


# -- Adam ------------------------------------------------------------------------


def test_adam_first_step_approximates_signed_lr():
    params = {"p": np.array([1.0, -1.0, 0.5])}
    grads = {"p": np.array([0.3, -0.2, 0.9])}
    state = AdamState.init(params)
    before = params["p"].copy()
    adam_step(params, grads, lr=0.1, state=state)
    # after bias correction the first step is lr * g / (|g| + eps)
    np.testing.assert_allclose(params["p"], before - 0.1 * np.sign(grads["p"]), atol=1e-6)
    assert state.t == 1


def test_adam_updates_in_place_and_converges_on_quadratic():
    params = {"p": np.array([5.0])}
    handle = params["p"]
    state = AdamState.init(params)
    for _ in range(2000):
        adam_step(params, {"p": 2.0 * params["p"]}, lr=0.01, state=state)
    assert params["p"] is handle
    assert abs(params["p"][0]) < 1e-2


def test_adam_validates_keys_and_shapes():
    params = {"p": np.zeros(3)}
    state = AdamState.init(params)
    with pytest.raises(ValueError):
        adam_step(params, {"q": np.zeros(3)}, lr=0.1, state=state)
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.zeros(4)}, lr=0.1, state=state)


def test_finite_difference_check_reports_worst_parameter():
    params = {"x": np.array([[1.0, 2.0]]), "y": np.array([0.5, -0.5])}

    def loss(p):
        return float(softmax_cross_entropy(p["x"], np.array([1]), ignore_id=-1)[0] + (p["y"] ** 2).sum())

    right = {"x": _ce_grad(params["x"], np.array([1])), "y": 2.0 * params["y"]}
    report = finite_difference_check(loss, right, params)
    assert report.ok
    assert report.worst_param in ("", "x", "y")
    assert report.max_rel_error < 1e-4
    report = finite_difference_check(loss, {**right, "y": params["y"]}, params)
    assert not report.ok and report.worst_param == "y"
    assert report.max_rel_error == pytest.approx(0.5)


# -- precision follows the inputs ------------------------------------------------------


def _chain_of_every_pass(dtype) -> tuple[Tape, dict, dict, object]:
    """Inputs and parameters of ``dtype`` through every training pass, each
    recorded on a tape with its backward, ending in a scalar loss: a row
    lookup, both gru_pass forms (final states, all states), clip_rows_l1 with a
    clipped and an inside row, a dense layer and softmax_cross_entropy.
    Returns the tape after backward, every forward value, every gradient
    and the loss."""
    rng = Rng(21)
    x, h0, w = gru_inputs(rng, 3, 2, 3, 4)
    table, h0 = x.astype(dtype), h0.astype(dtype)
    out_w = rng.derive("out_w").normal(0.0, 1.0, (4, 5)).astype(dtype)
    out_b = np.zeros(5, dtype=dtype)
    weights = [w[k].astype(dtype) for k in GRU_GATES]
    ids = np.array([5, 0, 3, 3, 1, 2])
    tape, grads = Tape(), {}

    def keep(name, outputs):
        grads.update({f"{name}.{i}": g for i, g in enumerate(outputs)})
        return outputs

    final, enc_back = gru_pass(table, ids, h0, weights, [2, 1, 0])

    def encoder(g):
        dx, dh0, dweights = enc_back(g)
        keep("encoder", [dx, dh0, *dweights])

    tape.record("encoder", encoder)
    norms = np.abs(final).sum(axis=1)
    assert norms[0] != norms[1]
    c = float(norms.mean())  # one row clipped, one inside
    latent, norms, scale = clip_rows_l1(final, c)
    tape.record("clip", lambda g: keep("clip", [clip_rows_l1_vjp(g, final, c, norms, scale)])[0])
    states, dec_back = gru_pass(table, ids, latent, weights, [2, 2, 2], all_states=True)

    def decoder(g):
        dx, dlatent, dweights = dec_back(g)
        return keep("decoder", [dx, dlatent, *dweights])[1]

    tape.record("decoder", decoder)
    logits = states @ out_w + out_b

    def output(g):
        return keep("output", [states.T @ g, g.sum(axis=0), g @ out_w.T])[2]

    tape.record("output", output)
    loss, ce_back = softmax_cross_entropy(logits, np.array([0, 4, 1, -1, 2, 3]), ignore_id=-1)
    tape.record("cross_entropy", lambda g: keep("cross_entropy", [ce_back(g)])[0])
    tape.backward(np.ones((), loss.dtype))
    values = {"rows": table[ids], "final": final, "latent": latent, "states": states, "logits": logits, "loss": loss}
    return tape, values, grads, loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_tape_value_and_gradient_keeps_the_input_precision(dtype):
    tape, values, grads, _ = _chain_of_every_pass(dtype)
    assert [name for name, _ in tape.nodes] == ["encoder", "clip", "decoder", "output", "cross_entropy"]
    assert len(grads) == 8 + 1 + 8 + 3 + 1
    for name, array in [*values.items(), *grads.items()]:
        assert np.asarray(array).dtype == dtype, name


def test_float32_tape_matches_float64_to_float32_precision():
    runs = {dtype: _chain_of_every_pass(dtype) for dtype in (np.float32, np.float64)}
    (_, _, grads32, loss32), (_, _, grads64, loss64) = runs[np.float32], runs[np.float64]
    assert float(loss32) == pytest.approx(float(loss64), rel=1e-5)
    for k, g in grads64.items():
        np.testing.assert_allclose(grads32[k], g, rtol=1e-3, atol=1e-5, err_msg=k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_math_and_adam_keep_the_input_precision(dtype):
    rng = Rng(22)
    x = rng.normal(0.0, 3.0, (4, 6)).astype(dtype)
    assert sigmoid(x).dtype == dtype
    assert sigmoid(x.copy(), out=x.copy()).dtype == dtype
    probs, log_z = dprw.numcore.softmax(x)
    assert probs.dtype == log_z.dtype == dtype
    clipped, norms, scale = clip_rows_l1(x, float(np.median(np.abs(x).sum(axis=1))))
    assert clipped.dtype == norms.dtype == scale.dtype == dtype
    assert (scale < 1).any() and (scale == 1).any()
    _, h, w = gru_inputs(rng, 1, 4, 3, 2)
    wx, bias, u = split_gru_weights([w[k].astype(dtype) for k in GRU_GATES])
    xp = rng.normal(0.0, 1.0, (4, 6)).astype(dtype)
    h_new, cache = gru_cell(xp, h.astype(dtype), u)
    assert h_new.dtype == dtype and all(c.dtype == dtype for c in cache)
    params = {"p": x.copy()}
    state = AdamState.init(params)
    for _ in range(3):
        adam_step(params, {"p": x * x}, lr=0.01, state=state)
    assert params["p"].dtype == state.m["p"].dtype == state.v["p"].dtype == dtype


def test_other_inputs_become_float64():
    t = GraphTape()
    for value in ([1, 2], np.array([1, 2], dtype=np.int64), np.array([1.0], dtype=np.float16), 3.0):
        assert t.leaf(value).value.dtype == np.float64
