"""Deterministic RNG streams, tape autodiff, Adam, and the grad checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dprw.numcore
from dprw.numcore import (
    AdamState,
    NonFiniteError,
    Rng,
    Tape,
    adam_step,
    clip_rows_l1,
    finite_difference_check,
    gru_cell,
    sigmoid,
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


# -- tape forward semantics ------------------------------------------------------


def test_matmul_add_bias_forward():
    t = Tape()
    a = t.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = t.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = t.leaf(np.array([10.0, 20.0]))
    out = t.add(t.matmul(a, w), b)
    np.testing.assert_allclose(out.value, [[11.0, 22.0], [13.0, 24.0]])


def test_shape_mismatches_raise():
    t = Tape()
    a = t.leaf(np.ones((2, 3)))
    b = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.matmul(a, b)
    with pytest.raises(ValueError):
        t.where_rows(np.array([True, False]), a, b)
    with pytest.raises(ValueError):
        t.add(a, b)


def test_non_finite_values_are_rejected():
    t = Tape()
    with pytest.raises(NonFiniteError):
        t.leaf(np.array([1.0, np.inf]))


def test_sigmoid_is_stable_for_large_inputs():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1e9, -1.0, 0.0, 1.0, 1e9]))
    np.testing.assert_allclose(out, [0.0, 1.0 / (1.0 + np.e), 0.5, 1.0 / (1.0 + np.exp(-1.0)), 1.0])


def test_where_rows_selects_per_row():
    t = Tape()
    a = t.leaf(np.array([[1.0, 1.0], [2.0, 2.0]]))
    b = t.leaf(np.array([[9.0, 9.0], [8.0, 8.0]]))
    out = t.where_rows(np.array([True, False]), a, b)
    np.testing.assert_array_equal(out.value, [[1.0, 1.0], [8.0, 8.0]])


def test_row_select_gathers_rows():
    t = Tape()
    table = t.leaf(np.arange(6.0).reshape(3, 2))
    out = t.row_select(table, [2, 0, 2])
    np.testing.assert_array_equal(out.value, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ValueError):
        t.row_select(table, [3])


def test_concat_axis0_and_axis1():
    t = Tape()
    a = t.leaf(np.ones((2, 2)))
    b = t.leaf(np.zeros((2, 2)))
    assert t.concat([a, b], axis=0).shape == (4, 2)
    assert t.concat([a, b], axis=1).shape == (2, 4)
    with pytest.raises(ValueError):
        t.concat([a, b], axis=2)


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
    t = Tape()
    x = np.array([[0.25, -0.5, 0.125], [3.0, -3.0, 3.0]])
    out = t.clip_rows_l1(t.leaf(x), 2.0)
    assert np.array_equal(out.value[0], x[0])  # norm 0.875 < 2, untouched
    assert np.isclose(np.abs(out.value[1]).sum(), 2.0)
    np.testing.assert_allclose(out.value[1] / np.abs(out.value[1]).sum() * 9.0, x[1])


def test_softmax_cross_entropy_matches_log_softmax():
    t = Tape()
    z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    targets = np.array([2, 1])
    loss = t.softmax_cross_entropy(t.leaf(z), targets, ignore_id=-1)
    expected = np.mean(
        [-z[i, targets[i]] + np.log(np.exp(z[i]).sum()) for i in range(2)]
    )
    assert np.isclose(float(loss.value), expected)


def test_softmax_cross_entropy_uniform_logits_is_log_vocab():
    t = Tape()
    v = 11
    loss = t.softmax_cross_entropy(t.leaf(np.zeros((4, v))), np.array([0, 1, 2, 3]), ignore_id=0)
    # rows with target 0 are ignored; remaining rows each cost ln(v)
    assert np.isclose(float(loss.value), np.log(v))


def test_softmax_cross_entropy_ignores_masked_rows():
    t = Tape()
    z = np.array([[5.0, 0.0], [0.0, 5.0], [7.0, 7.0]])
    with_pad = t.softmax_cross_entropy(t.leaf(z), np.array([0, 1, -1]), ignore_id=-1)
    t2 = Tape()
    without = t2.softmax_cross_entropy(t2.leaf(z[:2]), np.array([0, 1]), ignore_id=-1)
    assert np.isclose(float(with_pad.value), float(without.value))


def test_softmax_cross_entropy_all_ignored_raises():
    t = Tape()
    with pytest.raises(ValueError):
        t.softmax_cross_entropy(t.leaf(np.zeros((2, 3))), np.array([0, 0]), ignore_id=0)


# -- tape backward semantics -----------------------------------------------------


def test_gradient_accumulates_across_consumers():
    t = Tape()
    x = t.leaf(np.array([[2.0]]))
    y = t.sum_all(t.add(x, x))  # d/dx (2x) = 2
    t.backward(y)
    np.testing.assert_allclose(x.grad, [[2.0]])


def test_backward_requires_scalar_and_runs_once():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward(x)
    s = t.sum_all(x)
    t.backward(s)
    with pytest.raises(RuntimeError):
        t.backward(s)


def test_row_select_gradient_accumulates_duplicate_ids():
    t = Tape()
    table = t.leaf(np.zeros((3, 2)))
    picked = t.row_select(table, [1, 1, 2])
    t.backward(t.sum_all(picked))
    np.testing.assert_array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def _gradcheck(build, params, rtol=1e-4):
    report = finite_difference_check(build, params, rtol=rtol)
    assert report.ok, f"worst {report.worst_param}: {report.max_rel_error}"


def test_gradcheck_dense_layer():
    rng = Rng(11)
    params = {
        "x": rng.derive("x").normal(0.0, 1.0, (3, 4)),
        "w": rng.derive("w").normal(0.0, 1.0, (4, 2)),
        "b": rng.derive("b").normal(0.0, 1.0, 2),
    }
    targets = np.array([1, 0, -1])
    _gradcheck(
        lambda t, lv: t.softmax_cross_entropy(
            t.add(t.matmul(lv["x"], lv["w"]), lv["b"]), targets, ignore_id=-1
        ),
        params,
    )


GRU_GATES = ("wz", "bz", "wr", "br", "wh", "bh")


def gru_params(rng: Rng, e: int, h: int) -> dict:
    return {
        name: rng.derive(name).normal(0.0, 1.0, (e + h, h) if name.startswith("w") else h)
        for name in GRU_GATES
    }


def test_gru_step_forward_is_gru_cell():
    rng = Rng(15)
    w = gru_params(rng, 3, 4)
    x = rng.derive("x").normal(0.0, 1.0, (2, 3))
    h = rng.derive("h").normal(0.0, 1.0, (2, 4))
    t = Tape()
    out = t.gru_step(t.leaf(x), t.leaf(h), [t.leaf(w[k]) for k in GRU_GATES])
    expected, _ = gru_cell(x, h, [w[k] for k in GRU_GATES])
    assert out.value.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        t.gru_step(t.leaf(x), t.leaf(h[:1]), [t.leaf(w[k]) for k in GRU_GATES])
    with pytest.raises(ValueError):
        t.gru_step(t.leaf(h), t.leaf(h), [t.leaf(w[k]) for k in GRU_GATES])


def test_gru_step_gradients_are_computed_lazily_and_once(monkeypatch):
    calls = []
    real = dprw.numcore.gru_cell_vjp

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dprw.numcore, "gru_cell_vjp", counting)
    rng = Rng(16)
    w = gru_params(rng, 2, 3)
    t = Tape()
    h = t.gru_step(
        t.leaf(rng.derive("x").normal(0.0, 1.0, (2, 2))),
        t.leaf(np.zeros((2, 3))),
        [t.leaf(w[k]) for k in GRU_GATES],
    )
    loss = t.softmax_cross_entropy(h, np.array([0, 2]), ignore_id=-1)
    assert calls == []  # a forward-only evaluation computes no gradients
    t.backward(loss)
    assert calls == [1]


def test_gradcheck_gru_step_with_pad_rows():
    # two encoder-style steps: row 1 is PAD at step 0 and row 2 at step 1,
    # so where_rows freezes their state and h feeds both GRU steps
    rng = Rng(12)
    params = {
        "table": rng.derive("table").normal(0.0, 1.0, (5, 3)),
        "h0": rng.derive("h0").normal(0.0, 0.5, (3, 4)),
        "out_w": rng.derive("out_w").normal(0.0, 1.0, (4, 5)),
        **gru_params(rng, 3, 4),
    }
    ids = np.array([[1, 0, 4], [2, 3, 0]])
    targets = np.array([4, 0, 2])

    def build(t, lv):
        w = [lv[k] for k in GRU_GATES]
        h = lv["h0"]
        for step in ids:
            h = t.where_rows(step != 0, t.gru_step(t.row_select(lv["table"], step), h, w), h)
        return t.softmax_cross_entropy(t.matmul(h, lv["out_w"]), targets, ignore_id=-1)

    _gradcheck(build, params)


def test_gradcheck_clip_rows_both_regimes():
    # one row inside the ball, one clipped: exercises the rank-one term
    params = {"x": np.array([[0.2, -0.3, 0.1], [2.0, -1.5, 1.0]])}

    def build(t, lv):
        clipped = t.clip_rows_l1(lv["x"], 1.0)
        return t.softmax_cross_entropy(clipped, np.array([0, 2]), ignore_id=-1)

    _gradcheck(build, params)


def test_gradcheck_cross_entropy_with_ignored_rows():
    rng = Rng(13)
    params = {"z": rng.derive("z").normal(0.0, 2.0, (5, 4))}
    targets = np.array([0, 3, -1, 2, -1])
    _gradcheck(
        lambda t, lv: t.softmax_cross_entropy(lv["z"], targets, ignore_id=-1), params
    )


def test_gradcheck_where_rows_and_row_select():
    rng = Rng(14)
    params = {
        "table": rng.derive("t").normal(0.0, 1.0, (4, 3)),
        "h": rng.derive("h").normal(0.0, 1.0, (3, 3)),
    }
    mask = np.array([True, False, True])

    def build(t, lv):
        rows = t.row_select(lv["table"], [0, 2, 1])
        kept = t.where_rows(mask, rows, lv["h"])
        return t.softmax_cross_entropy(kept, np.array([2, 0, 1]), ignore_id=-1)

    _gradcheck(build, params)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gradcheck_random_two_layer_models(seed):
    rng = Rng(seed).derive("prop")
    dims = [int(d) for d in rng.derive("dims").integers(2, 5, size=3)]
    params = {
        "x": rng.derive("x").normal(0.0, 1.0, (2, dims[0])),
        "h": rng.derive("h").normal(0.0, 1.0, (2, dims[1])),
        "w2": rng.derive("w2").normal(0.0, 1.0, (dims[1], dims[2])),
        "b": rng.derive("b").normal(0.0, 1.0, dims[2]),
        **gru_params(rng.derive("gru"), dims[0], dims[1]),
    }
    targets = np.array([0, dims[2] - 1])

    def build(t, lv):
        hidden = t.gru_step(lv["x"], lv["h"], [lv[k] for k in GRU_GATES])
        logits = t.add(t.matmul(hidden, lv["w2"]), lv["b"])
        return t.softmax_cross_entropy(logits, targets, ignore_id=-1)

    _gradcheck(build, params)


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
    params = {"x": np.array([[1.0, 2.0]])}
    report = finite_difference_check(
        lambda t, lv: t.softmax_cross_entropy(lv["x"], np.array([1]), ignore_id=-1), params
    )
    assert report.ok
    assert report.worst_param in ("", "x")
    assert report.max_rel_error < 1e-4
