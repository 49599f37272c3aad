import json
import random
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from bison.core import BisonError, GroundAction, ObjectTable
from bison.envs import (ACTION_DIM, EGO_DIM, EnvConfig, env_domain,
                        generate_demos, make_env, make_labeller, obj_dim)
from bison.formats import DemoStep, parse_domain, parse_policy
from bison import gnn, learn
from bison.gnn import (EncodingSpec, GnnInput, GnnParams, LLSample, TrainConfig,
                       batch_backward, build_dataset, cosine_lr, encode, forward,
                       init_params, load_params, pad_batch, save_params, backward,
                       train)

from helpers import ground_action


def synth_spec(n_obj_feat=5):
    # |P|=4, |A|=3, M=2, n_ego=3, m_obj=5 → dims 11 / 3 / 15
    return EncodingSpec(n_pred=4, n_schema=3, max_arity=2, ego_dim=3,
                        obj_feat_dim=n_obj_feat, out_dim=3)


def rand_input(spec, rng, n_objects=2):
    return GnnInput(rng.normal(size=spec.g_dim), rng.normal(size=spec.a_dim),
                    rng.normal(size=(n_objects, spec.o_dim)))


def test_encoding_dims_formula():
    spec = synth_spec()
    assert spec.g_dim == 3 + 4 + 4 == 11
    assert spec.a_dim == 3
    assert spec.o_dim == 5 + 4 + 4 + 2 == 15


def test_encode_blocks_state():
    env = make_env(EnvConfig("blocks", 2, seed=1))
    lls, goal = env.reset()
    dom = env.domain
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    hls = env.label(lls)
    act = ground_action(dom, "place", ("b0", "p0"), env.table)
    inp = encode(spec, lls, act, goal, hls, env.table)
    assert inp.h_objects.shape == (2, spec.o_dim)
    # positional one-hots e_1, e_2 attached per argument slot
    base = spec.obj_feat_dim + 2 * spec.n_pred
    assert inp.h_objects[0][base] == 1.0 and inp.h_objects[0][base + 1] == 0.0
    assert inp.h_objects[1][base] == 0.0 and inp.h_objects[1][base + 1] == 1.0
    # no nullary facts hold in the goal: that one-hot block sums to zero
    assert np.all(inp.h_global[EGO_DIM + spec.n_pred:] == 0.0)
    # gripperFree is a nullary state fact
    assert inp.h_global[EGO_DIM + dom.pred_ids["gripperFree"]] == 1.0


def test_encode_goal_channels():
    # a nullary goal fact sets the goal half of h_global, a unary one the goal
    # half of its object's row; a binary one, like blocks' (at ?x ?y), is not
    # encoded
    dom = parse_domain("(define (domain toy) (:predicates (done) (ready) (lit ?x) (on ?x ?y))"
                       " (:action press :parameters (?x ?y) :precondition (and)"
                       " :effect (and (done) (lit ?x))))")
    spec = EncodingSpec.for_domain(dom, 2, 1, 1)
    table = ObjectTable(["o0", "o1"])
    lls = DemoStep([0.5, -1.0], {"o0": [0.25], "o1": [0.75]}, None)
    done, ready, lit, on = (dom.pred_ids[p] for p in ("done", "ready", "lit", "on"))
    hls = frozenset({(ready,), (lit, 0)})
    goal = frozenset({(done,), (lit, 0), (lit, 1), (on, 0, 1)})
    inp = encode(spec, lls, GroundAction(0, (0, 1)), goal, hls, table)
    #                    ego          state: done ready lit on   goal: done ready lit on
    assert inp.h_global.tolist() == [0.5, -1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert inp.h_action.tolist() == [1.0]
    #                  feature  state: done ready lit on  goal: done ready lit on  slot
    assert inp.h_objects.tolist() == [
        [0.25, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [0.75, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]]


def test_encode_unknown_object_errors():
    env = make_env(EnvConfig("blocks", 1, seed=1))
    lls, goal = env.reset()
    dom = env.domain
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    env.table.intern("ghost")
    act = ground_action(dom, "pick", ("ghost",), env.table)
    with pytest.raises(BisonError):
        encode(spec, lls, act, goal, env.label(lls), env.table)


def test_forward_zero_weights_zero_output():
    spec = synth_spec()
    params = GnnParams(spec, hidden=8, layers=2)  # zero init without rng
    rng = np.random.default_rng(0)
    assert np.allclose(forward(params, rand_input(spec, rng)), 0.0)


def test_forward_permutation_invariance():
    spec = synth_spec()
    rng = np.random.default_rng(1)
    params = GnnParams(spec, hidden=8, layers=2, init_rng=rng)
    inp = rand_input(spec, rng, n_objects=3)
    perm = GnnInput(inp.h_global, inp.h_action, inp.h_objects[[2, 0, 1]])
    assert np.allclose(forward(params, inp), forward(params, perm))


def test_forward_reproducible():
    spec = synth_spec()
    rng = np.random.default_rng(2)
    params = GnnParams(spec, hidden=8, layers=2, init_rng=rng)
    inp = rand_input(spec, np.random.default_rng(3))
    y1, y2 = forward(params, inp), forward(params, inp)
    assert np.array_equal(y1, y2)


def test_backward_zero_at_optimum():
    spec = synth_spec()
    rng = np.random.default_rng(4)
    params = GnnParams(spec, hidden=8, layers=2, init_rng=rng)
    inp = rand_input(spec, rng)
    target = forward(params, inp)
    grads, loss = reference_backward(params, inp, target)
    assert loss == 0.0
    assert all(np.allclose(g, 0.0) for g in grads)


def test_backward_quadratic_scaling():
    spec = synth_spec()
    rng = np.random.default_rng(5)
    params = GnnParams(spec, hidden=8, layers=2, init_rng=rng)
    inp = rand_input(spec, rng)
    y = forward(params, inp)
    _, l1 = backward(params, inp, y + 0.1)
    _, l2 = backward(params, inp, y + 0.2)
    assert l2 == pytest.approx(4 * l1, rel=1e-9)


def grad_check(params, inp, target, h=1e-5, tol=1e-4, per_tensor=6, rng=None):
    """Central finite differences on sampled coordinates, skipping kinks."""
    grads, _ = backward(params, inp, target)
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for tens, g in zip(params.tensors(), grads):
        flat = tens.reshape(-1)
        gf = g.reshape(-1)
        for idx in rng.choice(flat.size, size=min(per_tensor, flat.size),
                              replace=False):
            old = flat[idx]
            flat[idx] = old + h
            _, lp = backward(params, inp, target)
            flat[idx] = old - h
            _, lm = backward(params, inp, target)
            flat[idx] = old
            fd = (lp - lm) / (2 * h)
            an = gf[idx]
            denom = max(abs(fd), abs(an))
            if denom > 1e-7:
                worst = max(worst, abs(fd - an) / denom)
    return worst


def kink_margin(params, inp):
    """Minimum |pre-activation| and max-tie gap across the forward pass."""
    cache = reference_intermediates(params, inp)
    margins = [np.min(np.abs(cache["z1"]))]
    for (objs, _, _, zg, _, za, _, zo) in cache["layers"]:
        margins.append(np.min(np.abs(zg)))
        margins.append(np.min(np.abs(za)))
        if len(zo):
            margins.append(np.min(np.abs(zo)))
        if objs.shape[0] > 1:
            top2 = np.sort(objs, axis=0)[-2:]
            margins.append(np.min(top2[1] - top2[0]))
    return min(margins)


def test_gradcheck_random_configs():
    rng = np.random.default_rng(10)
    spec = synth_spec()
    checked = 0
    while checked < 10:
        params = GnnParams(spec, hidden=6, layers=2, init_rng=rng)
        inp = rand_input(spec, rng, n_objects=int(rng.integers(1, 4)))
        target = rng.normal(size=3)
        if kink_margin(params, inp) < 1e-3:
            continue  # adjacent to a ReLU/max kink: finite differences invalid
        assert grad_check(params, inp, target, rng=rng) < 1e-4
        checked += 1


def test_cosine_schedule_endpoints():
    cfg = TrainConfig()
    assert cosine_lr(gnn.LR, 0, cfg.iterations) == pytest.approx(1e-3)
    assert cosine_lr(gnn.LR, cfg.iterations - 1, cfg.iterations) <= 1e-6


def test_parameter_budget_blocks():
    dom = env_domain("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    params = init_params(spec, TrainConfig())
    assert params.count() < 33000


def test_parameter_budget_gacha():
    dom = env_domain("gacha")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("gacha"), ACTION_DIM)
    params = init_params(spec, TrainConfig())
    assert params.count() < 33000


def test_output_dim_matches_action_dim():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    lls, goal = env.reset()
    dom = env.domain
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    params = init_params(spec, TrainConfig())
    act = ground_action(dom, "pick", ("b0",), env.table)
    inp = encode(spec, lls, act, goal, env.label(lls), env.table)
    assert forward(params, inp).shape == (ACTION_DIM,)


def test_train_zero_iterations_returns_initial(blocks_demos):
    dom = env_domain("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    samples = build_dataset(blocks_demos[:3], dom, make_labeller("blocks"), spec)
    cfg = TrainConfig(iterations=0, seed=1)
    res = train(samples, spec, cfg)
    init = init_params(spec, cfg)
    assert all(np.array_equal(a, b)
               for a, b in zip(res.params.tensors(), init.tensors()))


def test_train_deterministic_same_seed(blocks_demos):
    dom = env_domain("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    samples = build_dataset(blocks_demos[:5], dom, make_labeller("blocks"), spec)
    r1 = train(samples, spec, TrainConfig(iterations=6, seed=3))
    r2 = train(samples, spec, TrainConfig(iterations=6, seed=3))
    assert all(np.array_equal(a, b)
               for a, b in zip(r1.params.tensors(), r2.params.tensors()))
    assert r1.losses == r2.losses


def test_train_empty_dataset_errors():
    with pytest.raises(BisonError):
        train([], synth_spec(), TrainConfig(iterations=1))


def test_params_save_load_round_trip(tmp_path, blocks_demos):
    dom = env_domain("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    samples = build_dataset(blocks_demos[:2], dom, make_labeller("blocks"), spec)
    res = train(samples, spec, TrainConfig(iterations=2, seed=0))
    path = str(tmp_path / "p.bsw")
    save_params(res.params, path)
    again = load_params(path)
    assert all(np.array_equal(a, b)
               for a, b in zip(res.params.tensors(), again.tensors()))
    assert again.spec == res.params.spec


def test_dataset_segment_pairing(blocks_demos):
    from bison.learn import extract_hl_trace
    dom = env_domain("blocks")
    lab = make_labeller("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    demo = blocks_demos[0]
    samples = build_dataset([demo], dom, lab, spec)
    assert len(samples) == len(demo.steps)
    trace = extract_hl_trace(demo, dom, lab)
    names = [dom.schemata[a.schema_id].name for a in trace.actions]
    assert names[0] == "pick" and names[-1] == "place"
    # the first sample pairs with the first HL action (a pick: 1 object node),
    # trailing samples with the last (a place: 2 object nodes)
    assert samples[0].inp.h_objects.shape[0] == 1
    assert samples[-1].inp.h_objects.shape[0] == 2


def reference_build_dataset(demos, domain, labeller, spec):
    """Dataset building as it ran on a collapsed trace: the labels are
    collapsed to their changes, each change is explained, and a segment
    counter advances at every label change."""
    samples = []
    for demo in demos:
        table = ObjectTable()
        for name in demo.steps[0].objects:
            table.intern(name)
        states = [labeller(s, table) for s in demo.steps]
        goal = frozenset(domain.ground_fact(g[0], g[1:], table) for g in demo.goal)
        hl_states = [states[0]]
        for s in states[1:]:
            if s != hl_states[-1]:
                hl_states.append(s)
        actions = [learn._explain_change(domain, a, b, table)
                   for a, b in zip(hl_states, hl_states[1:])]
        if None in actions or not actions:
            continue
        seg = 0
        for i, step in enumerate(demo.steps):
            if i > 0 and states[i] != states[i - 1]:
                seg = min(seg + 1, len(actions))
            act_i = min(seg, len(actions) - 1)
            inp = encode(spec, step, actions[act_i], goal, states[i], table)
            samples.append(LLSample(inp, np.asarray(step.action, dtype=float)))
    return samples


@pytest.mark.parametrize("kind,n", [("blocks", 3), ("blocks-noisy", 4), ("pickplace", 3)])
def test_build_dataset_matches_collapsed_reference(kind, n):
    # blocks-noisy at seed 11 includes demos whose teleports no action explains
    demos = generate_demos(EnvConfig(kind, n, seed=11), 12)
    dom, lab = env_domain(kind), make_labeller(kind)
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim(kind), ACTION_DIM)
    got = build_dataset(demos, dom, lab, spec)
    want = reference_build_dataset(demos, dom, lab, spec)
    assert len(got) == len(want) > 1000
    for a, b in zip(got, want):
        for x, y in ((a.inp.h_global, b.inp.h_global), (a.inp.h_action, b.inp.h_action),
                     (a.inp.h_objects, b.inp.h_objects), (a.target, b.target)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# Batched training path against the per-sample reference
# ---------------------------------------------------------------------------

def reference_intermediates(params: GnnParams, inp: GnnInput) -> dict:
    """``forward``'s values with every intermediate ``reference_backward``
    needs."""
    h = params.hidden
    n = inp.h_objects.shape[0]
    g = params.w_g0 @ inp.h_global
    a = params.w_a0 @ inp.h_action
    objs = inp.h_objects @ params.w_o0.T if n else np.zeros((0, h))
    layers = []
    for l in range(params.layers):
        if n:
            agg_idx = np.argmax(objs, axis=0)
            agg = objs[agg_idx, np.arange(h)]
        else:
            agg_idx = None
            agg = np.zeros(h)
        ug = g + a + agg
        zg = params.w_g[l] @ ug
        g2 = np.maximum(zg, 0.0)
        ua = g2 + a + agg
        za = params.w_a[l] @ ua
        a2 = np.maximum(za, 0.0)
        if n:
            uo = g2[None, :] + a[None, :] + objs
            zo = uo @ params.w_o[l].T
            objs2 = np.maximum(zo, 0.0)
        else:
            uo = zo = objs2 = objs
        layers.append((objs, agg_idx, ug, zg, ua, za, uo, zo))
        g, a, objs = g2, a2, objs2
    if n:
        fin_idx = np.argmax(objs, axis=0)
        fin = objs[fin_idx, np.arange(h)]
    else:
        fin_idx = None
        fin = np.zeros(h)
    r = g + a + fin
    z1 = params.r_w1 @ r + params.r_b1
    h1 = np.maximum(z1, 0.0)
    y = params.r_w2 @ h1 + params.r_b2
    return dict(n=n, layers=layers, g=g, a=a, objs=objs, fin_idx=fin_idx,
                r=r, z1=z1, h1=h1, y=y)


def reference_backward(params: GnnParams, inp: GnnInput, target: np.ndarray):
    """The per-sample gradient ``backward`` had before it became
    ``batch_backward`` on one sample: an argmax gather (first index on ties)
    and its own intermediates.  Gradients of the MSE (mean over output dims)
    and the loss."""
    target = np.asarray(target, dtype=float)
    if target.shape != (params.spec.out_dim,):
        raise BisonError("target dimension mismatch")
    cache = reference_intermediates(params, inp)
    y = cache["y"]
    d = params.spec.out_dim
    diff = y - target
    loss = float(np.mean(diff ** 2))
    dy = 2.0 * diff / d
    h = params.hidden
    n = cache["n"]
    layers = params.layers
    gw = [np.zeros_like(t) for t in params.w_g + params.w_a + params.w_o]
    gw_g, gw_a, gw_o = gw[:layers], gw[layers:2 * layers], gw[2 * layers:]
    dh1 = params.r_w2.T @ dy
    dz1 = dh1 * (cache["z1"] > 0)
    dr = params.r_w1.T @ dz1
    dg, da = dr, dr
    dobjs = np.zeros((n, h))
    if n:
        dobjs[cache["fin_idx"], np.arange(h)] += dr
    for l in range(layers - 1, -1, -1):
        objs_l, agg_idx, ug, zg, ua, za, uo, zo = cache["layers"][l]
        dg2, da2, dobjs2 = dg, da, dobjs
        dg_new = np.zeros(h)
        da_new = np.zeros(h)
        dobjs_new = np.zeros_like(objs_l)
        dagg = np.zeros(h)
        if n:
            dzo = dobjs2 * (zo > 0)
            gw_o[l] += dzo.T @ uo
            duo = dzo @ params.w_o[l]
            dg2 = dg2 + duo.sum(axis=0)
            da_new += duo.sum(axis=0)
            dobjs_new += duo
        dza = da2 * (za > 0)
        gw_a[l] += np.outer(dza, ua)
        dua = params.w_a[l].T @ dza
        dg2 = dg2 + dua
        da_new += dua
        dagg += dua
        dzg = dg2 * (zg > 0)
        gw_g[l] += np.outer(dzg, ug)
        dug = params.w_g[l].T @ dzg
        dg_new += dug
        da_new += dug
        dagg += dug
        if n:
            dobjs_new[agg_idx, np.arange(h)] += dagg
        dg, da, dobjs = dg_new, da_new, dobjs_new
    gw_o0 = dobjs.T @ inp.h_objects if n else np.zeros_like(params.w_o0)
    grads = [np.outer(dg, inp.h_global), np.outer(da, inp.h_action), gw_o0] + gw
    grads += [np.outer(dz1, cache["r"]), dz1, np.outer(dy, cache["h1"]), dy]
    return grads, loss



def arity3_spec():
    # M=3 so one batch mixes object counts 0..3
    return EncodingSpec(n_pred=4, n_schema=3, max_arity=3, ego_dim=3,
                        obj_feat_dim=5, out_dim=3)


def rand_samples(spec, rng, arities):
    out = []
    for n in arities:
        objs = rng.normal(size=(n, spec.o_dim))
        if n >= 2 and rng.random() < 0.3:
            objs[1] = objs[0]  # identical rows: the max ties at every layer
        out.append(LLSample(GnnInput(rng.normal(size=spec.g_dim),
                                     rng.normal(size=spec.a_dim), objs),
                            rng.normal(size=spec.out_dim)))
    return out


def per_sample_mean(params, samples):
    outs = [reference_backward(params, s.inp, s.target) for s in samples]
    grads = [sum(o[0][k] for o in outs) / len(outs) for k in range(len(outs[0][0]))]
    return grads, sum(o[1] for o in outs) / len(outs)


def has_zero_tie(params, inp):
    """Two object rows both zero after a ReLU on some unit, where max ties."""
    cache = reference_intermediates(params, inp)
    later = [layer[0] for layer in cache["layers"][1:]] + [cache["objs"]]
    return any(objs.shape[0] > 1 and np.any(np.sum(objs == 0.0, axis=0) > 1)
               for objs in later)


def test_batch_backward_matches_per_sample_mean():
    rng = np.random.default_rng(40)
    spec = arity3_spec()
    zero_ties = empty = 0
    for _ in range(250):
        params = GnnParams(spec, hidden=int(rng.integers(3, 9)),
                           layers=int(rng.integers(1, 4)), init_rng=rng)
        if rng.random() < 0.2:
            params.w_o0[...] = 0.0  # every layer-0 max ties: the first row wins
        samples = rand_samples(spec, rng, rng.integers(0, 4, size=rng.integers(1, 10)))
        grads, loss = batch_backward(params, pad_batch(spec, samples))
        ref_grads, ref_loss = per_sample_mean(params, samples)
        scale = max(np.max(np.abs(g)) for g in ref_grads)
        for g, r in zip(grads, ref_grads):
            assert g.shape == r.shape
            assert np.max(np.abs(g - r)) <= 1e-12 * scale
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        zero_ties += any(has_zero_tie(params, s.inp) for s in samples)
        empty += any(s.inp.h_objects.shape[0] == 0 for s in samples)
    assert zero_ties > 50 and empty > 50


def test_batch_gradcheck_padded_mixed_batch():
    # criterion 3's step and tolerance, every partial, on one padded batch
    h_step, tol = 1e-5, 1e-4
    rng = np.random.default_rng(41)
    spec = arity3_spec()
    while True:
        params = GnnParams(spec, hidden=6, layers=2, init_rng=rng)
        samples = rand_samples(spec, rng, [0, 1, 2, 3, 2, 1])
        if min(kink_margin(params, s.inp) for s in samples) >= 1e-3:
            break  # no sample adjacent to a ReLU/max kink
    batch = pad_batch(spec, samples)
    assert batch.mask.sum(axis=0).tolist() == [0, 1, 2, 3, 2, 1]
    grads, _ = batch_backward(params, batch)
    worst = 0.0
    for tens, g in zip(params.tensors(), grads):
        flat, gf = tens.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h_step
            _, lp = batch_backward(params, batch)
            flat[i] = old - h_step
            _, lm = batch_backward(params, batch)
            flat[i] = old
            fd = (lp - lm) / (2 * h_step)
            denom = max(abs(fd), abs(gf[i]))
            if denom > 1e-7:
                worst = max(worst, abs(fd - gf[i]) / denom)
    assert worst < tol


def test_pad_batch_target_mismatch_errors():
    spec = arity3_spec()
    samples = rand_samples(spec, np.random.default_rng(42), [1, 2])
    samples[1] = LLSample(samples[1].inp, np.zeros(spec.out_dim + 1))
    with pytest.raises(BisonError):
        pad_batch(spec, samples)


def test_backward_is_batch_backward_on_one_sample():
    rng = np.random.default_rng(44)
    spec = arity3_spec()
    ties = 0
    for i in range(400):
        params = GnnParams(spec, hidden=int(rng.integers(3, 65)),
                           layers=int(rng.integers(1, 4)), init_rng=rng)
        if i % 5 == 0:
            params.w_o0[...] = 0.0  # every layer-0 max ties: the first row wins
        (s,) = rand_samples(spec, rng, [i % 4])
        ties += i % 5 == 0 or (len(s.inp.h_objects) >= 2
                               and np.array_equal(*s.inp.h_objects[:2]))
        grads, loss = backward(params, s.inp, s.target)
        ref_grads, ref_loss = batch_backward(params, pad_batch(spec, [s]))
        assert loss == ref_loss
        assert len(grads) == len(ref_grads)
        for g, r in zip(grads, ref_grads):
            assert g.tobytes() == r.tobytes()
    assert ties > 100
    with pytest.raises(BisonError, match="target dimension mismatch"):
        backward(params, s.inp, np.zeros(spec.out_dim + 1))


def test_backward_rejects_non_finite_input():
    rng = np.random.default_rng(45)
    spec = arity3_spec()
    params = GnnParams(spec, hidden=8, layers=2, init_rng=rng)
    (s,) = rand_samples(spec, rng, [3])
    nan_row = s.inp.h_objects.copy()
    nan_row[1, 0] = np.nan
    inf_global = s.inp.h_global.copy()
    inf_global[0] = np.inf
    nan_target = s.target.copy()
    nan_target[2] = np.nan
    cases = [(GnnInput(s.inp.h_global, s.inp.h_action, nan_row), s.target),
             (GnnInput(inf_global, s.inp.h_action, s.inp.h_objects), s.target),
             (s.inp, nan_target)]
    for inp, target in cases:
        with pytest.raises(BisonError):
            backward(params, inp, target)
    backward(params, s.inp, s.target)  # the unmodified sample is accepted


def reference_train(samples, spec, config):
    """The per-sample training loop: one ``reference_backward`` call per batch
    sample."""
    params = init_params(spec, config)
    rng = np.random.default_rng(config.seed + 1)
    tensors = params.tensors()
    m = [np.zeros_like(t) for t in tensors]
    v = [np.zeros_like(t) for t in tensors]
    order = rng.permutation(len(samples))
    cursor = 0
    losses = []
    for it in range(config.iterations):
        batch = []
        while len(batch) < gnn.BATCH_SIZE:
            if cursor >= len(order):
                order = rng.permutation(len(samples))
                cursor = 0
            batch.append(samples[order[cursor]])
            cursor += 1
        acc = [np.zeros_like(t) for t in tensors]
        total = 0.0
        for s in batch:
            g, loss = reference_backward(params, s.inp, s.target)
            for ai, gi in zip(acc, g):
                ai += gi
            total += loss
        losses.append(total / len(batch))
        lr = cosine_lr(gnn.LR, it, config.iterations)
        for k, (tens, grad) in enumerate(zip(tensors, acc)):
            grad = grad / len(batch)
            m[k] = gnn.BETA1 * m[k] + (1 - gnn.BETA1) * grad
            v[k] = gnn.BETA2 * v[k] + (1 - gnn.BETA2) * grad * grad
            m_hat = m[k] / (1 - gnn.BETA1 ** (it + 1))
            v_hat = v[k] / (1 - gnn.BETA2 ** (it + 1))
            tens -= lr * m_hat / (np.sqrt(v_hat) + gnn.ADAM_EPS)
    return params, losses


def test_train_matches_per_sample_reference(blocks_demos):
    dom = env_domain("blocks")
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    # 5 demos hold fewer samples than 20 batches: the reshuffle path runs too
    samples = build_dataset(blocks_demos[:5], dom, make_labeller("blocks"), spec)
    assert len(samples) < 20 * 128
    config = TrainConfig(iterations=20, seed=7)
    res = train(samples, spec, config)
    ref_params, ref_losses = reference_train(samples, spec, config)
    assert np.allclose(res.losses, ref_losses, rtol=1e-9, atol=0.0)
    for a, b in zip(res.params.tensors(), ref_params.tensors()):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


# ---------------------------------------------------------------------------
# forward against the argmax-gather forward it replaced
# ---------------------------------------------------------------------------

def reference_forward(params, inp):
    """The previous ``forward``: max aggregation by an argmax gather (first
    index on ties), every intermediate its own array."""
    h = params.hidden
    n = inp.h_objects.shape[0]
    g = params.w_g0 @ inp.h_global
    a = params.w_a0 @ inp.h_action
    objs = inp.h_objects @ params.w_o0.T if n else np.zeros((0, h))
    for l in range(params.layers):
        agg = objs[np.argmax(objs, axis=0), np.arange(h)] if n else np.zeros(h)
        ug = g + a + agg
        zg = params.w_g[l] @ ug
        g2 = np.maximum(zg, 0.0)
        ua = g2 + a + agg
        za = params.w_a[l] @ ua
        a2 = np.maximum(za, 0.0)
        if n:
            uo = g2[None, :] + a[None, :] + objs
            zo = uo @ params.w_o[l].T
            objs = np.maximum(zo, 0.0)
        g, a = g2, a2
    fin = objs[np.argmax(objs, axis=0), np.arange(h)] if n else np.zeros(h)
    r = g + a + fin
    z1 = params.r_w1 @ r + params.r_b1
    h1 = np.maximum(z1, 0.0)
    return params.r_w2 @ h1 + params.r_b2


def assert_same_bytes(params, inp):
    y = forward(params, inp)
    assert y.tobytes() == reference_forward(params, inp).tobytes()
    assert y.tobytes() == reference_intermediates(params, inp)["y"].tobytes()


def test_forward_matches_reference_on_random_inputs():
    rng = np.random.default_rng(50)
    spec = arity3_spec()
    for i in range(600):
        params = GnnParams(spec, hidden=int(rng.integers(3, 65)),
                           layers=int(rng.integers(1, 4)), init_rng=rng)
        objs = rng.normal(size=(i % 4, spec.o_dim))
        if i % 3 == 1:
            objs[:, rng.random(spec.o_dim) < 0.5] = 0.0  # rows half zeros
        assert_same_bytes(params, GnnInput(rng.normal(size=spec.g_dim),
                                           rng.normal(size=spec.a_dim), objs))


def test_forward_matches_reference_on_max_ties_and_signed_zeros():
    rng = np.random.default_rng(51)
    spec = arity3_spec()
    zero_ties = 0
    for i in range(600):
        params = GnnParams(spec, hidden=int(rng.integers(3, 17)),
                           layers=int(rng.integers(1, 4)), init_rng=rng)
        if i % 4 == 1:
            params.w_o0[...] = 0.0
        elif i % 4 == 2:
            params.w_o0[...] = -0.0  # layer-0 rows of -0.0 and 0.0 tie
        objs = rng.normal(size=(2 + i % 2, spec.o_dim))
        if i % 3 == 0:
            objs[1:] = objs[0]  # duplicated rows: every max ties
        elif i % 3 == 1:
            objs = np.where(rng.random(objs.shape) < 0.5, -0.0, 0.0)
        inp = GnnInput(rng.normal(size=spec.g_dim), rng.normal(size=spec.a_dim), objs)
        assert_same_bytes(params, inp)
        zero_ties += has_zero_tie(params, inp)
    assert zero_ties > 100


def test_forward_and_backward_agree_on_a_nan_object_row():
    # forward's max and the reference's argmax gather both carry the NaN through
    rng = np.random.default_rng(52)
    spec = arity3_spec()
    for n in (1, 2, 3):
        params = GnnParams(spec, hidden=16, layers=2, init_rng=rng)
        objs = rng.normal(size=(n, spec.o_dim))
        objs[min(1, n - 1), 0] = np.nan
        inp = GnnInput(rng.normal(size=spec.g_dim), rng.normal(size=spec.a_dim), objs)
        assert np.all(np.isnan(forward(params, inp)))
        assert np.all(np.isnan(reference_intermediates(params, inp)["y"]))


def test_forward_matches_reference_on_eval_bilevel_inputs(monkeypatch):
    # the frozen rules and network of the benchmark's eval-bilevel workload
    from bison.runner import Executor, run_episode
    fixtures = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
    params = load_params(str(fixtures / "params.bsw"))
    policy = parse_policy((fixtures / "policy.bsp").read_text(encoding="utf-8"),
                          env_domain("blocks"))
    inputs = []

    def recording(params, inp):
        inputs.append(inp)
        return forward(params, inp)

    monkeypatch.setattr(gnn, "forward", recording)
    for n in (1, 3, 6, 10):
        run_episode(make_env(EnvConfig("blocks", n, seed=n)),
                    Executor("bison", hl_policy=policy, gnn_params=params,
                             ll_mode="gnn"), step_cap=400)
    assert len(inputs) > 800
    for inp in inputs:
        assert_same_bytes(params, inp)


# ---------------------------------------------------------------------------
# encode against the per-call encode it replaced
# ---------------------------------------------------------------------------

def reference_encode(spec, lls, hla, goal, hls, table):
    """The previous ``encode``: every one-hot counted afresh on every call."""
    np_, m = spec.n_pred, spec.max_arity
    g = np.zeros(spec.g_dim)
    g[:spec.ego_dim] = lls.ego
    for fact in hls:
        if len(fact) == 1:
            g[spec.ego_dim + fact[0]] += 1.0
    for fact in goal:
        if len(fact) == 1:
            g[spec.ego_dim + np_ + fact[0]] += 1.0
    a = np.zeros(spec.a_dim)
    a[hla.schema_id] = 1.0
    rows = []
    for i, oid in enumerate(hla.args):
        name = table.names[oid]
        vec = lls.objects.get(name)
        if vec is None:
            raise BisonError("action references unknown object %r" % name)
        row = np.zeros(spec.o_dim)
        row[:spec.obj_feat_dim] = vec
        base = spec.obj_feat_dim
        for fact in hls:
            if len(fact) == 2 and fact[1] == oid:
                row[base + fact[0]] += 1.0
        for fact in goal:
            if len(fact) == 2 and fact[1] == oid:
                row[base + np_ + fact[0]] += 1.0
        if i < m:
            row[base + 2 * np_ + i] = 1.0
        rows.append(row)
    objs = np.array(rows) if rows else np.zeros((0, spec.o_dim))
    return GnnInput(g, a, objs)


def assert_same_input(got, want):
    for x, y in ((got.h_global, want.h_global), (got.h_action, want.h_action),
                 (got.h_objects, want.h_objects)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def checked_encode(monkeypatch):
    """Patch ``gnn.encode`` to record each call's input beside the reference's
    and ``gnn._hl_part`` to count the memo's misses; the memo starts empty."""
    real_encode, real_part = gnn.encode, gnn._hl_part
    pairs, misses = [], []

    def recording(*args):
        inp = real_encode(*args)
        pairs.append((inp, reference_encode(*args)))
        return inp

    def counting(*args):
        misses.append(args)
        return real_part(*args)

    monkeypatch.setattr(gnn, "_hl_last", None)
    monkeypatch.setattr(gnn, "encode", recording)
    monkeypatch.setattr(gnn, "_hl_part", counting)
    return pairs, misses


def test_encode_matches_reference_on_eval_bilevel_steps(monkeypatch):
    # every LL step of the benchmark's eval-bilevel episodes, the arrays
    # compared after the episodes end, so no later call may have written into
    # an earlier call's input
    from bison.runner import Executor, run_episode
    fixtures = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
    params = load_params(str(fixtures / "params.bsw"))
    policy = parse_policy((fixtures / "policy.bsp").read_text(encoding="utf-8"),
                          env_domain("blocks"))
    pairs, misses = checked_encode(monkeypatch)
    for n in (1, 3, 6, 10):
        run_episode(make_env(EnvConfig("blocks", n, seed=n)),
                    Executor("bison", hl_policy=policy, gnn_params=params,
                             ll_mode="gnn"), step_cap=400)
    assert len(pairs) > 800
    assert 0 < len(misses) < len(pairs) // 5  # most steps repeat the last HL key
    for got, want in pairs:
        assert_same_input(got, want)


@pytest.mark.parametrize("kind", ["blocks", "pickplace"])
def test_encode_matches_reference_in_build_dataset(kind, blocks_demos, pickplace_demos,
                                                   monkeypatch):
    demos = {"blocks": blocks_demos, "pickplace": pickplace_demos}[kind]
    dom, lab = env_domain(kind), make_labeller(kind)
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim(kind), ACTION_DIM)
    pairs, misses = checked_encode(monkeypatch)
    samples = build_dataset(demos, dom, lab, spec)
    assert len(pairs) == len(samples) > 100
    assert 0 < len(misses) < len(pairs)
    for sample, (got, want) in zip(samples, pairs):
        assert sample.inp is got
        assert_same_input(got, want)


def toy_encoding():
    """A toy domain's spec, object table and HL vocabulary."""
    dom = parse_domain("(define (domain toy) (:predicates (done) (ready) (lit ?x) (on ?x ?y))"
                       " (:action press :parameters (?x ?y) :precondition (and)"
                       " :effect (and (done) (lit ?x)))"
                       " (:action tap :parameters (?x) :precondition (and) :effect (ready)))")
    spec = EncodingSpec.for_domain(dom, 2, 1, 1)
    table = ObjectTable(["o0", "o1", "o2"])
    return dom, spec, table


def toy_lls(rng):
    return DemoStep(rng.normal(size=2).tolist(),
                    {name: rng.normal(size=1).tolist() for name in ("o0", "o1", "o2")}, None)


def test_encode_misses_on_each_part_of_its_key(monkeypatch):
    dom, spec, table = toy_encoding()
    done, ready, lit, on = (dom.pred_ids[p] for p in ("done", "ready", "lit", "on"))
    rng = np.random.default_rng(60)
    hla, hla2 = GroundAction(0, (0, 1)), GroundAction(0, (2, 1))
    goal, goal2 = frozenset({(done,), (lit, 0), (on, 0, 1)}), frozenset({(lit, 1), (lit, 2)})
    hls, hls2 = frozenset({(ready,), (lit, 0)}), frozenset({(lit, 1), (lit, 2), (on, 2, 1)})
    spec2 = EncodingSpec.for_domain(dom, 2, 1, 1)  # equal, but another object
    calls = [  # (spec, hla, goal, hls, a miss?)
        (spec, hla, goal, hls, True),
        (spec, hla, goal, hls, False),
        (spec2, hla, goal, hls, True),
        (spec2, hla2, goal, hls, True),
        (spec2, hla2, goal2, hls, True),
        (spec2, hla2, goal2, hls2, True),
        (spec2, GroundAction(0, (2, 1)), frozenset(goal2), frozenset(hls2), False),
        (spec2, GroundAction(1, (2,)), goal2, hls2, True),
        (spec2, GroundAction(1, (2,)), goal2, hls2, False),
        (spec2, GroundAction(0, ()), goal2, hls2, True),
    ]
    pairs, misses = checked_encode(monkeypatch)
    for k, (sp, act, gl, hl, miss) in enumerate(calls):
        before = len(misses)
        gnn.encode(sp, toy_lls(rng), act, gl, hl, table)
        assert len(misses) - before == miss, k
    for got, want in pairs:
        assert_same_input(got, want)


def test_encode_returns_arrays_no_later_call_shares():
    # pure_nn_stub zeroes h_action in place; the next call is unchanged
    _, spec, table = toy_encoding()
    rng = np.random.default_rng(61)
    hla, goal, hls = GroundAction(0, (0, 1)), frozenset({(2, 1)}), frozenset({(1,), (2, 0)})
    for _ in range(3):
        lls = toy_lls(rng)
        got = encode(spec, lls, hla, goal, hls, table)
        assert_same_input(got, reference_encode(spec, lls, hla, goal, hls, table))
        for x in (got.h_global, got.h_action, got.h_objects):
            x[...] = 0.0


def test_encode_unknown_object_errors_on_a_memo_hit(monkeypatch):
    _, spec, table = toy_encoding()
    rng = np.random.default_rng(62)
    hla, goal, hls = GroundAction(0, (0, 1)), frozenset(), frozenset({(1,)})
    _, misses = checked_encode(monkeypatch)
    lls = toy_lls(rng)
    gnn.encode(spec, lls, hla, goal, hls, table)
    del lls.objects["o1"]
    with pytest.raises(BisonError, match="unknown object 'o1'"):
        gnn.encode(spec, lls, hla, goal, hls, table)
    assert len(misses) == 1


def test_encode_memo_keeps_nothing_past_its_last_call(monkeypatch):
    class Labels(frozenset):
        pass

    _, spec, table = toy_encoding()
    rng = np.random.default_rng(63)
    hla, goal = GroundAction(0, (0, 1)), frozenset()
    monkeypatch.setattr(gnn, "_hl_last", None)
    hls = Labels({(1,)})
    held = weakref.ref(hls)
    encode(spec, toy_lls(rng), hla, goal, hls, table)
    del hls
    assert held() is not None  # the last call's key
    encode(spec, toy_lls(rng), hla, goal, Labels({(0,)}), table)
    assert held() is None


# ---------------------------------------------------------------------------
# .bsw files: every malformed file is a BisonError
# ---------------------------------------------------------------------------

def bsw_parts(tmp_path):
    """The header dict and payload bytes of a small saved parameter file."""
    params = GnnParams(synth_spec(), hidden=4, layers=1,
                       init_rng=np.random.default_rng(43))
    path = tmp_path / "ok.bsw"
    save_params(params, str(path))
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + hlen]), blob[8 + hlen:], blob


def bsw_bytes(header, payload):
    text = (header if isinstance(header, bytes)
            else json.dumps(header).encode("utf-8"))
    return b"BSW1" + struct.pack("<I", len(text)) + text + payload


def _with(header, **changes):
    out = json.loads(json.dumps(header))
    for key, value in changes.items():
        if key.startswith("spec_"):
            out["spec"][key[5:]] = value
        else:
            out[key] = value
    return out


BAD_BSW = {
    "empty": lambda h, p, blob: b"",
    "bad magic": lambda h, p, blob: b"BSW2" + blob[4:],
    "short header length": lambda h, p, blob: blob[:6],
    "truncated to 300 bytes": lambda h, p, blob: blob[:300],
    "header past end": lambda h, p, blob: b"BSW1" + struct.pack("<I", 10 ** 6) + b"{}",
    "header {}": lambda h, p, blob: bsw_bytes({}, p),
    "header not JSON": lambda h, p, blob: bsw_bytes(b"{spec", p),
    "header not UTF-8": lambda h, p, blob: bsw_bytes(b"\xff\xfe", p),
    "header a list": lambda h, p, blob: bsw_bytes([h], p),
    "deeply nested": lambda h, p, blob: bsw_bytes(b"[" * 100000, p),
    "extra key": lambda h, p, blob: bsw_bytes(_with(h, extra=1), p),
    "spec missing field": lambda h, p, blob: bsw_bytes(
        _with(h, spec={k: v for k, v in h["spec"].items() if k != "out_dim"}), p),
    "spec field a string": lambda h, p, blob: bsw_bytes(_with(h, spec_n_pred="4"), p),
    "spec field a bool": lambda h, p, blob: bsw_bytes(_with(h, spec_n_pred=True), p),
    "spec field negative": lambda h, p, blob: bsw_bytes(_with(h, spec_out_dim=-3), p),
    "spec field a float": lambda h, p, blob: bsw_bytes(_with(h, spec_ego_dim=3.0), p),
    "hidden zero": lambda h, p, blob: bsw_bytes(_with(h, hidden=0), p),
    "huge hidden": lambda h, p, blob: bsw_bytes(_with(h, hidden=10 ** 12), p),
    "huge layers": lambda h, p, blob: bsw_bytes(_with(h, layers=10 ** 12), p),
    "tensors not a list": lambda h, p, blob: bsw_bytes(_with(h, tensors=10), p),
    "shapes disagree": lambda h, p, blob: bsw_bytes(
        _with(h, tensors=h["tensors"][::-1]), p),
    "spec disagrees with payload": lambda h, p, blob: bsw_bytes(
        _with(h, spec_out_dim=4, tensors=h["tensors"][:-2] + [[4, 4], [4]]), p),
    "payload short": lambda h, p, blob: blob[:-8],
    "payload trailing bytes": lambda h, p, blob: blob + b"\0" * 8,
    "payload odd length": lambda h, p, blob: blob + b"\0",
    "NaN weight": lambda h, p, blob: blob[:-8] + struct.pack("<d", float("nan")),
    "infinite weight": lambda h, p, blob: blob[:-8] + struct.pack("<d", float("inf")),
}


@pytest.mark.parametrize("case", sorted(BAD_BSW))
def test_load_params_rejects_malformed(tmp_path, case):
    header, payload, blob = bsw_parts(tmp_path)
    path = tmp_path / "bad.bsw"
    path.write_bytes(BAD_BSW[case](header, payload, blob))
    with pytest.raises(BisonError):
        load_params(str(path))


def test_load_params_accepts_rebuilt_file(tmp_path):
    # the corruption helpers rebuild a loadable file when nothing changes
    header, payload, blob = bsw_parts(tmp_path)
    rebuilt = bsw_bytes(_with(header), payload)
    assert rebuilt == blob
    path = tmp_path / "same.bsw"
    path.write_bytes(rebuilt)
    assert load_params(str(path)).count() == len(payload) // 8


def mutate_bytes(blob: bytes, rng: random.Random) -> bytes:
    """One to three random byte flips, truncations or insertions."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("flip", "truncate", "insert"))
        i = rng.randrange(len(blob) + 1)
        if kind == "flip" and i < len(blob):
            blob = blob[:i] + bytes([blob[i] ^ rng.randrange(1, 256)]) + blob[i + 1:]
        elif kind == "truncate":
            blob = blob[:i]
        else:
            blob = blob[:i] + bytes(rng.randrange(256) for _ in range(rng.randint(1, 8))) \
                + blob[i:]
    return blob


def test_load_params_byte_fuzz(tmp_path):
    _, _, blob = bsw_parts(tmp_path)
    rng = random.Random(23)
    path = tmp_path / "fuzz.bsw"
    loaded = rejected = 0
    for _ in range(400):
        path.write_bytes(mutate_bytes(blob, rng))
        try:
            params = load_params(str(path))
        except BisonError:
            rejected += 1
        else:
            assert isinstance(params, GnnParams)
            loaded += 1
    # a flip inside the weights mostly still loads; a change of length never does
    assert loaded >= 20 and rejected >= 200
