"""Low-level policy network: message passing with hand-derived gradients.

The graph has a global node (ego features plus nullary fact one-hot sums), an
action node (schema one-hot) and one node per argument object of the HL action
(object features, unary fact one-hot sums, positional one-hot).  Object
embeddings aggregate by element-wise max; message passing updates the global
node first and feeds the fresh value into the action and object updates.  MSE
behaviour cloning runs under Adam with a cosine-annealed learning rate.

All tensor math is plain dense numpy; reverse-mode accumulation is written out
explicitly for this fixed graph (max routes gradient to the argmax element,
first index on ties; ReLU gradient is zero at 0).  ``encode`` memoises the HL
part of its last call (the one-hots of HL state, goal and HL action), as
``envs.label_blocks`` does its resting facts, so an LL step that keeps its HL
key copies that part and writes only the LL features.  ``forward`` is the
inference path: one sample, no intermediates kept, object rows aggregated by
a fold of ``np.maximum``, byte-equal to numpy's max reduction.  The one gradient,
``batch_backward``, runs once per training batch over object rows padded
under a mask; ``backward`` is that pass on a one-sample batch.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from . import learn
from .core import BisonError, Domain, GroundAction, ObjectTable
from .formats import Demo

PARAM_BUDGET = 33000

# the one training recipe: network size and the Adam schedule
HIDDEN, LAYERS = 64, 2
LR, BATCH_SIZE = 1e-3, 128
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise BisonError("invalid training configuration")


@dataclass
class EncodingSpec:
    """Input dimensions derived from a domain and an env's feature layout."""

    n_pred: int
    n_schema: int
    max_arity: int   # M: positional one-hot width
    ego_dim: int
    obj_feat_dim: int
    out_dim: int

    @property
    def g_dim(self) -> int:
        return self.ego_dim + 2 * self.n_pred

    @property
    def a_dim(self) -> int:
        return self.n_schema

    @property
    def o_dim(self) -> int:
        return self.obj_feat_dim + 2 * self.n_pred + self.max_arity

    @classmethod
    def for_domain(cls, domain: Domain, ego_dim: int, obj_feat_dim: int,
                   out_dim: int) -> "EncodingSpec":
        return cls(len(domain.predicates), len(domain.schemata),
                   max((s.arity for s in domain.schemata), default=1),
                   ego_dim, obj_feat_dim, out_dim)


@dataclass
class GnnInput:
    h_global: np.ndarray
    h_action: np.ndarray
    h_objects: np.ndarray  # (n_objects, o_dim); n_objects >= 0


# encode's last HL part: (spec, hla, goal, hls, part).  One tuple, read into a
# local once, so no reader sees half of an update.
_hl_last = None


def _hl_part(spec: EncodingSpec, hla: GroundAction, goal: frozenset,
             hls: frozenset) -> tuple:
    """The input arrays with every slot that (HL state, goal, HL action) sets:
    h_global's ``2 * n_pred`` one-hot counts, h_action's schema one-hot and,
    per argument row, its ``2 * n_pred`` one-hot counts and its positional
    one-hot.  The LL feature slots stay zero."""
    np_, m = spec.n_pred, spec.max_arity
    g = np.zeros(spec.g_dim)
    for fact in hls:
        if len(fact) == 1:
            g[spec.ego_dim + fact[0]] += 1.0
    for fact in goal:
        if len(fact) == 1:
            g[spec.ego_dim + np_ + fact[0]] += 1.0
    a = np.zeros(spec.a_dim)
    a[hla.schema_id] = 1.0
    objs = np.zeros((len(hla.args), spec.o_dim))
    base = spec.obj_feat_dim
    for i, oid in enumerate(hla.args):
        row = objs[i]
        for fact in hls:
            if len(fact) == 2 and fact[1] == oid:
                row[base + fact[0]] += 1.0
        for fact in goal:
            if len(fact) == 2 and fact[1] == oid:
                row[base + np_ + fact[0]] += 1.0
        if i < m:
            row[base + 2 * np_ + i] = 1.0
    return g, a, objs


def encode(spec: EncodingSpec, lls, hla: GroundAction, goal: frozenset,
           hls: frozenset, table: ObjectTable) -> GnnInput:
    """Build input embeddings from an LL state, HL action, goal and abstraction.

    Only nullary and unary facts contribute one-hots; higher arities carry no
    encoding.  Only the action's argument objects become object nodes.

    The HL part (``_hl_part``) is reused from the last call while the spec is
    the same object and the HL action, goal and HL state are equal, which
    holds on most consecutive LL steps; its counts are exact small integers,
    so a reused part is byte-equal to a fresh one.  Each call copies it and
    writes the LL features into the copies, so no caller shares an array.
    """
    global _hl_last
    last = _hl_last
    if (last is not None and last[0] is spec and last[1] == hla
            and last[2] == goal and last[3] == hls):
        part = last[4]
    else:
        part = _hl_part(spec, hla, goal, hls)
        _hl_last = (spec, hla, goal, hls, part)
    g, a, objs = part
    g, a, objs = g.copy(), a.copy(), objs.copy()
    g[:spec.ego_dim] = lls.ego
    for i, oid in enumerate(hla.args):
        name = table.names[oid]
        vec = lls.objects.get(name)
        if vec is None:
            raise BisonError("action references unknown object %r" % name)
        objs[i, :spec.obj_feat_dim] = vec
    return GnnInput(g, a, objs)


def param_shapes(spec: EncodingSpec, hidden: int, layers: int) -> list:
    """Tensor shapes in serialization order, which ``GnnParams.tensors()`` keeps."""
    h = hidden
    return ([(h, spec.g_dim), (h, spec.a_dim), (h, spec.o_dim)]
            + [(h, h)] * (3 * layers)
            + [(h, h), (h,), (spec.out_dim, h), (spec.out_dim,)])


class GnnParams:
    """Weight tensors, built in ``param_shapes`` order and kept as that list."""

    def __init__(self, spec: EncodingSpec, hidden: int, layers: int, seed: int = 0,
                 init_rng: Optional[np.random.Generator] = None):
        self.spec = spec
        self.hidden = hidden
        self.layers = layers
        self.seed = seed

        def init(shape):
            if init_rng is None or len(shape) == 1:  # biases start at zero
                return np.zeros(shape)
            bound = 1.0 / math.sqrt(shape[-1])
            return init_rng.uniform(-bound, bound, shape)

        self._tensors = ts = [init(shape) for shape in param_shapes(spec, hidden, layers)]
        self.w_g0, self.w_a0, self.w_o0 = ts[:3]
        self.w_g = ts[3:3 + layers]
        self.w_a = ts[3 + layers:3 + 2 * layers]
        self.w_o = ts[3 + 2 * layers:3 + 3 * layers]
        self.r_w1, self.r_b1, self.r_w2, self.r_b2 = ts[3 + 3 * layers:]
        if (hidden, layers) == (HIDDEN, LAYERS) and self.count() >= PARAM_BUDGET:
            raise BisonError("parameter count %d exceeds the %d budget"
                             % (self.count(), PARAM_BUDGET))

    def tensors(self) -> list:
        return self._tensors

    def count(self) -> int:
        return sum(t.size for t in self.tensors())


def init_params(spec: EncodingSpec, config: TrainConfig) -> GnnParams:
    rng = np.random.default_rng(config.seed)
    return GnnParams(spec, HIDDEN, LAYERS, config.seed, rng)


def _max_rows(objs: np.ndarray) -> np.ndarray:
    """The element-wise max of the rows: a left fold of ``np.maximum``, the
    loop and order ``objs.max(axis=0)`` runs, so NaNs and signed-zero ties
    come out byte-equal to it; zeros when there are no rows."""
    n = objs.shape[0]
    if n == 0:
        return np.zeros(objs.shape[1])
    if n == 1:
        return objs[0]
    agg = np.maximum(objs[0], objs[1])
    for k in range(2, n):
        np.maximum(agg, objs[k], out=agg)
    return agg


def forward(params: GnnParams, inp: GnnInput) -> np.ndarray:
    """Predict an LL action (the inference path: no intermediates kept).
    The max aggregation propagates a NaN as an argmax gather does; on a tie
    of signed zeros the two may pick differently, but every aggregate passes
    a ReLU, which maps -0.0 to 0.0, so the output bytes agree.  Products are
    ``ndarray.dot``: the BLAS calls ``@`` makes, with less dispatch."""
    g = params.w_g0.dot(inp.h_global)
    a = params.w_a0.dot(inp.h_action)
    objs = inp.h_objects.dot(params.w_o0.T)
    for w_g, w_a, w_o in zip(params.w_g, params.w_a, params.w_o):
        ga = g + a
        agg = _max_rows(objs)
        g = w_g.dot(ga + agg)
        np.maximum(g, 0.0, out=g)
        ga = g + a
        a = w_a.dot(ga + agg)
        np.maximum(a, 0.0, out=a)
        objs = (ga + objs).dot(w_o.T)
        np.maximum(objs, 0.0, out=objs)
    fin = _max_rows(objs)
    z1 = params.r_w1.dot(g + a + fin) + params.r_b1
    np.maximum(z1, 0.0, out=z1)
    return params.r_w2.dot(z1) + params.r_b2


def cosine_lr(base: float, iteration: int, total: int) -> float:
    if total <= 1:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * iteration / (total - 1)))


# ---------------------------------------------------------------------------
# Dataset construction and training
# ---------------------------------------------------------------------------

@dataclass
class LLSample:
    inp: GnnInput
    target: np.ndarray


def build_dataset(demos: Iterable[Demo], domain: Domain, labeller: Callable,
                  spec: EncodingSpec) -> List[LLSample]:
    """Pair every LL step with the HL action of its abstraction segment.

    A step pairs with the action explaining the first label change after it;
    steps from the last change on pair with the last HL action.  Demos that
    cannot be abstracted are skipped.
    """
    samples = []
    for demo in demos:
        try:
            trace = learn.extract_hl_trace(demo, domain, labeller)
        except learn.AbstractionGapError:
            continue
        if not trace.actions:
            continue
        last = len(trace.actions) - 1
        for i, step in enumerate(demo.steps):
            act = trace.actions[min(bisect_right(trace.changes, i), last)]
            inp = encode(spec, step, act, trace.goal, trace.step_states[i], trace.table)
            samples.append(LLSample(inp, np.asarray(step.action, dtype=float)))
    return samples


@dataclass
class PaddedBatch:
    """Samples stacked for batched training.

    Object arrays are slot-major: ``h_objects[k, i]`` is sample ``i``'s
    object row ``k``, so every matmul over a slot is one small BLAS call.  A
    sample's real rows fill slots ``0..n-1`` and zero padding follows;
    ``mask`` marks the real rows.  ``width`` is the largest object count among
    the samples (``spec.max_arity`` at most for encoded samples) and at least 1.
    """

    h_global: np.ndarray   # (B, g_dim)
    h_action: np.ndarray   # (B, a_dim)
    h_objects: np.ndarray  # (width, B, o_dim)
    mask: np.ndarray       # (width, B) bool
    target: np.ndarray     # (B, out_dim)

    def take(self, idx) -> "PaddedBatch":
        return PaddedBatch(self.h_global[idx], self.h_action[idx],
                           self.h_objects[:, idx], self.mask[:, idx],
                           self.target[idx])


def pad_batch(spec: EncodingSpec, samples: Sequence[LLSample]) -> PaddedBatch:
    """Stack samples into one padded batch."""
    if any(np.shape(s.target) != (spec.out_dim,) for s in samples):
        raise BisonError("target dimension mismatch")
    width = max([1] + [s.inp.h_objects.shape[0] for s in samples])
    objs = np.zeros((width, len(samples), spec.o_dim))
    mask = np.zeros((width, len(samples)), dtype=bool)
    for i, s in enumerate(samples):
        n = s.inp.h_objects.shape[0]
        objs[:n, i] = s.inp.h_objects
        mask[:n, i] = True
    return PaddedBatch(np.array([s.inp.h_global for s in samples], dtype=float),
                       np.array([s.inp.h_action for s in samples], dtype=float),
                       objs, mask,
                       np.array([s.target for s in samples], dtype=float))


def batch_backward(params: GnnParams, batch: PaddedBatch):
    """Batch means of the per-sample MSE gradients and losses.

    The same math as ``forward`` over stacked arrays, keeping every
    intermediate the gradient needs.  The max
    aggregation sets padded rows to -inf, so it always picks a real row (the
    first one on ties, as padding follows the real rows); a sample with no
    object nodes aggregates to 0 and gets no object gradient.  Each (sample,
    unit) pair owns one argmax slot, so gradients scatter back with a plain
    fancy-index ``+=``.
    """
    width, b = batch.mask.shape
    h = params.hidden
    rows = np.arange(b)[:, None]
    units = np.arange(h)[None, :]
    has = batch.mask.any(axis=0)[:, None]
    pad = np.where(batch.mask, 0.0, -np.inf)[:, :, None]

    def pool(objs):
        """Max over the slots and its argmax, by strict comparison."""
        masked = objs + pad
        best = masked[0]
        idx = np.zeros(best.shape, dtype=np.intp)
        for k in range(1, width):
            better = masked[k] > best
            idx[better] = k
            best = np.where(better, masked[k], best)
        return idx, np.where(has, best, 0.0)

    def relu(z):
        return np.maximum(z, 0.0)

    def flat(x):
        return x.reshape(-1, x.shape[-1])

    g = batch.h_global @ params.w_g0.T
    a = batch.h_action @ params.w_a0.T
    objs = batch.h_objects @ params.w_o0.T
    layers = []
    for l in range(params.layers):
        agg_idx, agg = pool(objs)
        ug = g + a + agg
        zg = ug @ params.w_g[l].T
        g2 = relu(zg)
        ua = g2 + a + agg
        za = ua @ params.w_a[l].T
        uo = (g2 + a)[None] + objs
        zo = uo @ params.w_o[l].T
        layers.append((agg_idx, ug, zg, ua, za, uo, zo))
        g, a, objs = g2, relu(za), relu(zo)
    fin_idx, fin = pool(objs)
    r = g + a + fin
    z1 = r @ params.r_w1.T + params.r_b1
    h1 = relu(z1)
    y = h1 @ params.r_w2.T + params.r_b2

    diff = y - batch.target
    loss = float(np.mean(diff ** 2))
    dy = 2.0 * diff / (diff.shape[1] * b)
    dz1 = (dy @ params.r_w2) * (z1 > 0)
    dr = dz1 @ params.r_w1
    dg, da = dr, dr
    dobjs = np.zeros((width, b, h))
    dobjs[fin_idx, rows, units] += np.where(has, dr, 0.0)
    gw_g, gw_a, gw_o = ([None] * params.layers for _ in range(3))
    for l in range(params.layers - 1, -1, -1):
        agg_idx, ug, zg, ua, za, uo, zo = layers[l]
        dzo = dobjs * (zo > 0)
        gw_o[l] = flat(dzo).T @ flat(uo)
        duo = dzo @ params.w_o[l]
        duo_sum = duo.sum(axis=0)
        dza = da * (za > 0)
        gw_a[l] = dza.T @ ua
        dua = dza @ params.w_a[l]
        dzg = (dg + duo_sum + dua) * (zg > 0)
        gw_g[l] = dzg.T @ ug
        dug = dzg @ params.w_g[l]
        duo[agg_idx, rows, units] += np.where(has, dua + dug, 0.0)
        dg, da, dobjs = dug, duo_sum + dua + dug, duo
    grads = [dg.T @ batch.h_global, da.T @ batch.h_action,
             flat(dobjs).T @ flat(batch.h_objects)]
    grads += gw_g + gw_a + gw_o
    grads += [dz1.T @ r, dz1.sum(axis=0), dy.T @ h1, dy.sum(axis=0)]
    return grads, loss


def backward(params: GnnParams, inp: GnnInput, target: np.ndarray):
    """Gradients of one sample's MSE (mean over output dims) and the loss:
    ``batch_backward`` on a one-sample batch.  Non-finite input raises
    ``BisonError``, as the batch max would skip a NaN object row."""
    if not all(np.all(np.isfinite(x))
               for x in (inp.h_global, inp.h_action, inp.h_objects, target)):
        raise BisonError("non-finite network input or target")
    return batch_backward(params, pad_batch(params.spec, [LLSample(inp, target)]))


@dataclass
class TrainResult:
    params: GnnParams
    losses: list  # per-iteration batch MSE


def train(samples: List[LLSample], spec: EncodingSpec, config: TrainConfig) -> TrainResult:
    """Adam + cosine annealing over shuffled batches; deterministic per seed.

    Each iteration runs one ``batch_backward`` over its padded batch.
    """
    if not samples:
        raise BisonError("empty training dataset")
    params = init_params(spec, config)
    if config.iterations == 0:
        return TrainResult(params, [])
    data = pad_batch(spec, samples)
    rng = np.random.default_rng(config.seed + 1)
    tensors = params.tensors()
    m = [np.zeros_like(t) for t in tensors]
    v = [np.zeros_like(t) for t in tensors]
    order = rng.permutation(len(samples))
    cursor = 0
    losses = []
    for it in range(config.iterations):
        picks = []
        need = BATCH_SIZE
        while need:
            if cursor >= len(order):
                order = rng.permutation(len(samples))
                cursor = 0
            take = order[cursor:cursor + need]
            picks.append(take)
            cursor += len(take)
            need -= len(take)
        grads, loss = batch_backward(params, data.take(np.concatenate(picks)))
        losses.append(loss)
        lr = cosine_lr(LR, it, config.iterations)
        t_adam = it + 1
        for k, (tens, grad) in enumerate(zip(tensors, grads)):
            m[k] = BETA1 * m[k] + (1 - BETA1) * grad
            v[k] = BETA2 * v[k] + (1 - BETA2) * grad * grad
            m_hat = m[k] / (1 - BETA1 ** t_adam)
            v_hat = v[k] / (1 - BETA2 ** t_adam)
            tens -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return TrainResult(params, losses)


# ---------------------------------------------------------------------------
# Parameter file format (.bsw): JSON header + little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"BSW1"


def save_params(params: GnnParams, path: str):
    header = {
        "spec": asdict(params.spec),
        "hidden": params.hidden, "layers": params.layers, "seed": params.seed,
        "tensors": [list(t.shape) for t in params.tensors()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for t in params.tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


_SPEC_KEYS = [f.name for f in fields(EncodingSpec)]
_HEADER_KEYS = {"spec", "hidden", "layers", "seed", "tensors"}


def _is_int(x, least=0) -> bool:
    return type(x) is int and x >= least


def load_params(path: str) -> GnnParams:
    """Read a ``.bsw`` file; any malformed content raises ``BisonError``."""
    with open(path, "rb") as fh:
        data = fh.read()

    def bad(why):
        return BisonError("bad parameter file %s: %s" % (path, why))

    if data[:4] != _MAGIC:
        raise BisonError("not a parameter file: %s" % path)
    if len(data) < 8:
        raise bad("truncated header")
    (hlen,) = struct.unpack("<I", data[4:8])
    if 8 + hlen > len(data):
        raise bad("header length %d exceeds the file" % hlen)
    try:
        header = json.loads(data[8:8 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise bad("header is not JSON (%s)" % e) from None
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise bad("header must be an object with keys %s" % sorted(_HEADER_KEYS))
    spec_fields = header["spec"]
    if not isinstance(spec_fields, dict) or set(spec_fields) != set(_SPEC_KEYS) \
            or not all(_is_int(spec_fields[k]) for k in _SPEC_KEYS):
        raise bad("spec must map %s to non-negative integers" % ", ".join(_SPEC_KEYS))
    if not (_is_int(header["hidden"], 1) and _is_int(header["layers"], 1)
            and _is_int(header["seed"])):
        raise bad("hidden and layers must be positive integers, seed non-negative")
    spec, hidden, layers = EncodingSpec(**spec_fields), header["hidden"], header["layers"]
    tensors = header["tensors"]  # 3 * layers + 7 shapes, counted before any is built
    if not isinstance(tensors, list) or len(tensors) != 3 * layers + 7 \
            or tensors != [list(shape) for shape in param_shapes(spec, hidden, layers)]:
        raise bad("tensor shapes do not match the spec")
    payload = data[8 + hlen:]
    need = 8 * sum(math.prod(shape) for shape in tensors)
    if len(payload) != need:
        raise bad("payload is %d bytes, the shapes need %d" % (len(payload), need))
    values = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise bad("non-finite weight")
    params = GnnParams(spec, hidden, layers, header["seed"])
    offset = 0
    for t in params.tensors():
        t[...] = values[offset:offset + t.size].reshape(t.shape)
        offset += t.size
    return params
