"""Desk-scale 2D pick-and-place simulators with labelling functions.

A kinematic gripper moves in the unit arena; the grip channel grasps the
nearest block, releases a held one, or actuates fixtures (the gacha lid and
lever).  Object feature vectors carry absolute position, position relative to
the gripper, a held flag and type one-hots.  ``render`` builds each vector as
one list, the geometry then a constant ``tail`` of flag channels (a resting
block's, a held block's or a fixture's); gacha's colour and box channels are
written by one hook per step.  It returns a ``formats.DemoStep`` whose
``action`` is None until the runner acts on it, so a recorded episode is a
demo and one labeller reads live states and demo steps alike.  An action is
the ``[x, y, grip]`` float list a demo step holds, fresh from each skill call.

The kind table ``KINDS`` maps the five kinds (blocks, blocks-noisy, factory,
gacha, pickplace) to three families: domain and built-in policy texts,
labeller, env class and object feature width.  The families share feature
channels 0-7, so one labelling core labels the gripper, block clear and
at(block, fixture) and each family's labeller adds only its own facts.  Each
env carries its family's ``domain`` and ``builtin_policy``; the runner reads
them from the env, and ``generate_demos`` keeps the steps of the runner's
oracle episodes as its demos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import runner
from .core import BisonError, Domain, Fact, GroundAction, ObjectTable
from .formats import Demo, DemoStep, parse_domain, parse_policy
from .rules import HLPolicy

ARENA_LO, ARENA_HI = 0.0, 1.0
DELTA = 0.02           # max gripper motion per step
EPS = 0.05             # ∞-norm radius for at/grasp/zone tests
MIN_SEP = 0.125        # minimum separation when sampling layouts
GRIP_ON = 0.25         # actuation deadband: |grip| <= GRIP_ON holds state
GRIP_DWELL = 6         # frames a grasp/release command must persist to act
JAM_PROB = 0.1         # probability that a gacha roll fails
EGO_DIM = 3
ACTION_DIM = 3


@dataclass
class EnvConfig:
    kind: str
    n_objects: int
    seed: int = 0
    teleport_prob: Optional[float] = None  # per goal-satisfying block per step
    start_at_block: Optional[bool] = None  # pickplace: force robot start pad

    def __post_init__(self):
        limit = max_objects(self.kind)  # unknown kinds raise
        if self.n_objects < 1:
            raise BisonError("n_objects must be >= 1")
        if limit is not None and self.n_objects > limit:
            raise BisonError("%s has room for at most %d objects, got %d"
                             % (self.kind, limit, self.n_objects))
        if self.teleport_prob is None:
            self.teleport_prob = 0.001 if self.kind == "blocks-noisy" else 0.0
        if not (0.0 <= self.teleport_prob <= 1.0):
            raise BisonError("teleport_prob must be in [0, 1]")

    @property
    def max_steps(self) -> int:
        return 2048 * self.n_objects


# ---------------------------------------------------------------------------
# Domains and built-in policies
# ---------------------------------------------------------------------------

BLOCKS_DOMAIN_TEXT = """
(define (domain blocks)
  (:predicates (clear ?x) (gripperFree) (holding ?x) (at ?x ?y))
  (:action pick
    :parameters (?x)
    :precondition (and (clear ?x) (gripperFree))
    :effect (and (holding ?x) (not (gripperFree))))
  (:action place
    :parameters (?x ?l)
    :precondition (and (holding ?x) (clear ?l))
    :effect (and (at ?x ?l) (gripperFree) (not (holding ?x)) (not (clear ?l)))))
"""

PICKPLACE_DOMAIN_TEXT = """
(define (domain pickplace)
  (:predicates (rAt ?x) (at ?x ?y) (free) (hold ?x))
  (:action pick
    :parameters (?o ?l)
    :precondition (and (rAt ?l) (at ?o ?l) (free))
    :effect (and (hold ?o) (not (at ?o ?l)) (not (free))))
  (:action move
    :parameters (?l1 ?l2)
    :precondition (and (rAt ?l1))
    :effect (and (rAt ?l2) (not (rAt ?l1))))
  (:action place
    :parameters (?o ?l)
    :precondition (and (rAt ?l) (hold ?o))
    :effect (and (at ?o ?l) (free) (not (hold ?o)))))
"""

GACHA_DOMAIN_TEXT = """
(define (domain gacha)
  (:predicates (clear ?x) (gripperFree) (holding ?x) (at ?x ?y)
               (colourOf ?x ?c) (trayColour ?t ?c) (in ?x ?d)
               (opened ?d) (closed ?d) (achievedGoal ?c))
  (:action placeGoal
    :parameters (?x ?t ?c)
    :precondition (and (holding ?x) (colourOf ?x ?c) (trayColour ?t ?c))
    :effect (and (achievedGoal ?c) (at ?x ?t) (gripperFree) (not (holding ?x))))
  (:action pick
    :parameters (?x)
    :precondition (and (gripperFree))
    :effect (and (holding ?x) (not (gripperFree))))
  (:action discard
    :parameters (?x)
    :precondition (and (holding ?x))
    :effect (and (gripperFree) (not (holding ?x))))
  (:action open
    :parameters (?d)
    :precondition (and (closed ?d))
    :effect (and (opened ?d) (not (closed ?d))))
  (:action close
    :parameters (?d)
    :precondition (and (opened ?d))
    :effect (and (closed ?d) (not (opened ?d))))
  (:action roll
    :parameters (?d ?b)
    :precondition (and (closed ?d) (clear ?d) (gripperFree))
    :effect (oneof (and (not (clear ?d))) (and))))
"""

BLOCKS_POLICY_TEXT = """
1: (:vars ?x ?l) (:state (holding ?x) (clear ?l)) (:goal (at ?x ?l)) => (place ?x ?l)
2: (:vars ?x ?l) (:state (clear ?x) (gripperFree)) (:goal (at ?x ?l)) => (pick ?x)
"""

PICKPLACE_POLICY_TEXT = """
1: (:vars ?x ?l) (:state (hold ?x) (rAt ?l)) (:goal (at ?x ?l)) => (place ?x ?l)
2: (:vars ?x ?l ?l1) (:state (hold ?x) (rAt ?l1)) (:goal (at ?x ?l)) => (move ?l1 ?l)
3: (:vars ?x ?l ?l1) (:state (at ?x ?l1) (free) (rAt ?l1)) (:goal (at ?x ?l)) => (pick ?x ?l1)
4: (:vars ?x ?l ?l1 ?l2) (:state (at ?x ?l1) (free) (rAt ?l2)) (:goal (at ?x ?l)) => (move ?l2 ?l1)
"""

GACHA_POLICY_TEXT = """
1: (:vars ?x ?c ?t) (:state (holding ?x) (colourOf ?x ?c) (trayColour ?t ?c)) (:goal (achievedGoal ?c)) => (placeGoal ?x ?t ?c)
2: (:vars ?x ?c ?d ?t) (:state (gripperFree) (opened ?d) (in ?x ?d) (colourOf ?x ?c) (trayColour ?t ?c)) (:goal (achievedGoal ?c)) => (pick ?x)
3: (:vars ?d ?b ?c) (:state (closed ?d) (clear ?d) (gripperFree)) (:goal (achievedGoal ?c)) => (roll ?d ?b)
4: (:vars ?d ?c) (:state (closed ?d) (gripperFree)) (:goal (achievedGoal ?c)) => (open ?d)
5: (:vars ?x ?d ?c) (:state (gripperFree) (opened ?d) (in ?x ?d)) (:goal (achievedGoal ?c)) => (pick ?x)
6: (:vars ?x ?c) (:state (holding ?x)) (:goal (achievedGoal ?c)) => (discard ?x)
7: (:vars ?d ?c) (:state (opened ?d) (clear ?d) (gripperFree)) (:goal (achievedGoal ?c)) => (close ?d)
"""

# ---------------------------------------------------------------------------
# Labelling functions (operate on feature vectors; shared by envs and demos)
# ---------------------------------------------------------------------------

# Every family's object vector starts with the same eight channels:
#   [x, y, relx, rely, gripdist, held, is_block, is_fixture]
# where the fixture is a pad (blocks, pickplace) or a tray (gacha).  gripdist
# is the ∞-norm distance to the gripper; the skills' grip ramps are linear in
# it, which keeps them cloneable within the fixed training budget
B_HELD, B_BLOCK, B_PAD = 5, 6, 7
BLOCKS_OBJ_DIM = 8

# gacha appends [is_box, colour_idx+1, box_state].  colour_idx is 1-based so
# abstract colour objects (no type flag, no geometry) are distinguishable from
# hidden blocks (all-zero vectors); box_state packs lid-open (bit 0) and
# occupied (bit 1).  Kept compact: the parameter budget is tight at these dims.
G_BLOCK, G_TRAY, G_BOX, G_CIDX, G_BSTATE = B_BLOCK, B_PAD, 8, 9, 10
GACHA_OBJ_DIM = 11


def _tail(dim: int, *flags: int) -> tuple:
    """Channels 5 and up of a ``dim``-wide object vector: 1.0 at each of
    ``flags``, 0.0 elsewhere."""
    return tuple(1.0 if c in flags else 0.0 for c in range(5, dim))


def _near(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) < EPS


def _clip(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v  # min/max calls cost 5x more


def _split(objects: dict, wide: bool):
    """One pass by type flag: (held, blocks, fixtures, box, colours).  Resting
    blocks and fixtures are (name, x, y); the rest (name, vec) or None,
    box and colours only in the ``wide`` gacha layout.  All-zero vectors
    (hidden capsules) land nowhere: no facts."""
    held = box = None
    blocks, fixtures, colours = [], [], []
    for name, vec in objects.items():
        if vec[B_BLOCK] > 0.5:
            if vec[B_HELD] > 0.5:
                held = (name, vec)
            else:
                blocks.append((name, vec[0], vec[1]))
        elif vec[B_PAD] > 0.5:
            fixtures.append((name, vec[0], vec[1]))
        elif wide:
            if vec[G_BOX] > 0.5:
                box = (name, vec)
            elif vec[G_CIDX] > 0.5:
                colours.append((name, vec))
    return held, blocks, fixtures, box, colours


def _gripper_facts(held, table: ObjectTable, p_free, p_hold, p_clear) -> set:
    """gripperFree, or holding the held block (clear too, if the domain has it)."""
    if held is None:
        return {(p_free,)}
    hid = table.intern(held[0])
    return {(p_hold, hid)} if p_clear is None else {(p_hold, hid), (p_clear, hid)}


def _block_facts(add: Callable, blocks, fixtures, table: ObjectTable, p_clear, p_at,
                 extra: Callable = None) -> list:
    """``add`` clear(block) (unless ``p_clear`` is None) for each resting block
    with no other within EPS, at(block, fixture) for each fixture within EPS
    (∞-norm, strict) and a family's ``extra(oid, block)`` facts.  Interning goes
    block by block: the block if it gets per-block facts, their objects, then
    at's block and fixture.  Returns the at facts' (block, fixture) pairs."""
    intern = table.intern
    pairs = []
    for block in blocks:
        name, x, y = block
        if p_clear is not None:
            oid = intern(name)
            if not any(abs(x - b[1]) < EPS and abs(y - b[2]) < EPS
                       for b in blocks if b is not block):
                add((p_clear, oid))
            if extra is not None:
                extra(oid, block)
        for fixture in fixtures:
            if abs(x - fixture[1]) < EPS and abs(y - fixture[2]) < EPS:
                add((p_at, intern(name), intern(fixture[0])))
                pairs.append((block, fixture))
    return pairs


# label_blocks' last resting part: (table, the resting blocks' and pads'
# (name, x, y) lists, their facts in insertion order).  One tuple, read into a
# local once, so no reader sees half of an update.
_resting = None


def label_blocks(step, table: ObjectTable) -> frozenset:
    """The core's facts plus clear for every empty pad.

    Between steps only the gripper and the held block move, so the facts of
    resting blocks and pads are reused from the last call while the table and
    every resting (name, x, y) stay the same.  The label ids are one cached
    tuple per process, so the memo needs no key for them.  A table only grows
    and never renumbers, so on a hit every name is interned under the same id:
    the call returns, and leaves the table, as a fresh one would.  The reused
    facts are added in their first insertion order, so the frozenset iterates
    in the same order too."""
    global _resting
    p_free, p_hold, p_clear, p_at = _BLOCKS.label_ids
    held, blocks, pads, _, _ = _split(step.objects, False)
    facts = _gripper_facts(held, table, p_free, p_hold, p_clear)
    last = _resting
    if last is not None and last[0] is table and last[1] == blocks and last[2] == pads:
        rest = last[3]
    else:
        rest = []
        covered = {pad[0] for _, pad in _block_facts(rest.append, blocks, pads, table,
                                                      p_clear, p_at)}
        rest.extend((p_clear, table.intern(pad[0])) for pad in pads
                    if pad[0] not in covered)
        _resting = (table, blocks, pads, rest)
    facts.update(rest)
    return frozenset(facts)


def label_pickplace(step, table: ObjectTable) -> frozenset:
    """The core's facts plus rAt of the pad nearest the robot (ties: by name)."""
    p_free, p_hold, p_rat, p_at = _PICKPLACE.label_ids
    held, blocks, pads, _, _ = _split(step.objects, False)
    if not pads:
        raise BisonError("pickplace step has no location for the robot to be at")
    facts = _gripper_facts(held, table, p_free, p_hold, None)
    ex, ey = step.ego[0], step.ego[1]
    nearest = min(pads, key=lambda pad: (max(abs(pad[1] - ex), abs(pad[2] - ey)),
                                         pad[0]))
    facts.add((p_rat, table.intern(nearest[0])))
    _block_facts(facts.add, blocks, pads, table, None, p_at)
    return frozenset(facts)


def label_gacha(step, table: ObjectTable) -> frozenset:
    """The core's facts plus colours, the box's lid and occupancy, capsules in
    the open box and achievedGoal of each colour resting on its own tray."""
    (p_free, p_hold, p_clear, p_at, p_colour, p_tray, p_in, p_opened, p_closed,
     p_goal) = _GACHA.label_ids
    objects = step.objects
    held, blocks, trays, box, colours = _split(objects, True)
    colour_name = {int(round(vec[G_CIDX])): name for name, vec in colours}
    intern = table.intern

    def colour(vec):
        return colour_name.get(int(round(vec[G_CIDX])))

    facts = _gripper_facts(held, table, p_free, p_hold, p_clear)
    if held is not None:
        cname = colour(held[1])
        if cname is not None:
            facts.add((p_colour, intern(held[0]), intern(cname)))
    bstate = int(round(box[1][G_BSTATE])) if box is not None else 0
    lid_open = bool(bstate & 1)
    if box is not None:
        bid = intern(box[0])
        facts.add((p_opened if lid_open else p_closed, bid))
        if not bstate & 2:
            facts.add((p_clear, bid))
    for tname, _, _ in trays:
        cname = colour(objects[tname])
        if cname is not None:
            facts.add((p_tray, intern(tname), intern(cname)))

    def capsule_facts(oid, block):
        cname = colour(objects[block[0]])
        if cname is not None:
            facts.add((p_colour, oid, intern(cname)))
        if lid_open and _near(block[1:3], box[1]):
            facts.add((p_in, oid, intern(box[0])))

    for block, tray in _block_facts(facts.add, blocks, trays, table, p_clear, p_at,
                                    capsule_facts):
        cname = colour(objects[block[0]])
        if cname is not None and colour(objects[tray[0]]) == cname:
            facts.add((p_goal, intern(cname)))
    return frozenset(facts)


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------

class SimEnv:
    """Shared kinematics, render, labelling and pick and carry-to-fixture skills;
    subclasses add layout, dynamics, object features and other skills.

    Positions are (x, y) float pairs and each step works on plain floats: the
    state is a handful of numbers, too few for array operations to pay.
    ``max_objects`` is the most objects the layout has room for (None: no
    limit)."""

    max_objects: Optional[int] = None
    # render's tails: a resting block's, a held block's and a fixture's
    tails = (_tail(BLOCKS_OBJ_DIM, B_BLOCK), _tail(BLOCKS_OBJ_DIM, B_HELD, B_BLOCK),
             _tail(BLOCKS_OBJ_DIM, B_PAD))
    # a kind's hook that writes its own channels into render's vectors, once
    # per step (None: the tails are all)
    _features = None

    def __init__(self, config: EnvConfig):
        family = _family(config.kind)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.domain = family.domain
        self.builtin_policy = family.policy
        self.obj_dim = family.obj_dim
        self._labeller = make_labeller(config.kind)
        self.table = ObjectTable()
        self.grip = (0.5, 0.5)
        self.held: Optional[str] = None
        self.block_pos: dict = {}
        self.fixture_pos: dict = {}
        self.goal: frozenset = frozenset()
        self.grasp_count = 0
        self.release_count = 0
        self.prev_grip_cmd = 0.0

    # -- helpers ----------------------------------------------------------
    def _sample_free(self):
        points = list(self.block_pos.values()) + list(self.fixture_pos.values())
        sep = MIN_SEP
        for attempt in range(1200):
            x, y = self.rng.uniform(0.1, 0.9, 2).tolist()
            if all(max(abs(x - qx), abs(y - qy)) >= sep for qx, qy in points):
                return x, y
            if attempt % 400 == 399:  # dense layouts: relax rather than fail
                sep *= 0.8
        raise BisonError("layout sampling failed; too many objects")

    def fact(self, pred: str, *names: str) -> Fact:
        return self.domain.ground_fact(pred, names, self.table)

    def _goto(self, target, grip_cmd: float) -> list:
        # proportional control decelerating within 6·DELTA of the target;
        # the smooth profile is what makes the skill cloneable by MSE
        gx, gy = self.grip
        return [_clip((target[0] - gx) / (6.0 * DELTA), -1.0, 1.0),
                _clip((target[1] - gy) / (6.0 * DELTA), -1.0, 1.0),
                grip_cmd]

    def _dist(self, target) -> float:
        gx, gy = self.grip
        return max(abs(target[0] - gx), abs(target[1] - gy))

    def _approach_grasp(self, target) -> list:
        """Approach with the grip command ramping up over the grasp shell.

        Two-piece ramp: a shallow sub-threshold rise spreads supervised signal
        over the approach, and the steep piece crosses the actuation threshold
        only within ~0.072 of the target.  With layout separation MIN_SEP the
        nearest in-range block at that point is necessarily the target, so
        passing over other blocks never grasps them.
        """
        d = self._dist(target)
        shallow = _clip((2.6 * EPS - d) / (1.2 * EPS), 0.0, 1.0)
        steep = _clip((1.5 * EPS - d) / (0.8 * EPS), 0.0, 1.0)
        return self._goto(target, 0.22 * shallow + 0.78 * steep)

    def _carry_release(self, target) -> list:
        """Carry toward the target; release fires only inside the drop shell.

        Two-piece ramp: a shallow sub-threshold plateau spreads the negative
        signal over many frames (so one training epoch can fit it), and a
        steep final drop crosses the actuation threshold only once the held
        block is well inside the at() radius of its destination.
        """
        d = self._dist(target)
        shallow = _clip((2.5 * EPS - d) / (1.5 * EPS), 0.0, 1.0)
        steep = _clip((0.9 * EPS - d) / (0.3 * EPS), 0.0, 1.0)
        return self._goto(target, -(0.22 * shallow + 0.78 * steep))

    def _approach_actuate(self, target) -> list:
        """Tight actuation ramp for fixture zones (lids, levers).

        Actuation is edge-triggered, so the command withdraws after a high
        frame; repeated attempts (e.g. re-pulling a jammed lever) re-arm.
        """
        if self.prev_grip_cmd > GRIP_ON:
            return self._goto(target, 0.0)
        return self._goto(target, _clip((1.2 * EPS - self._dist(target)) / (0.6 * EPS),
                                        0.0, 1.0))

    def _carry(self, name: str, target) -> list:
        """Carry the held block name to target (idle if not held or no target)."""
        if target is None or self.held != name:
            return [0.0, 0.0, 0.0]
        return self._carry_release(target)

    # -- interface ----------------------------------------------------------
    def step(self, action) -> DemoStep:
        g = self._move_gripper(action)
        self._grip(g)
        self._maybe_release(g)
        self._dynamics()
        return self.render()

    def _grip(self, g: float):
        """What the grip command ``g`` does before a release: grasp here."""
        self._grasp_nearest(g)

    def _dynamics(self):
        """Changes the world makes after the gripper acted (none here)."""

    def label(self, lls: DemoStep) -> frozenset:
        return self._labeller(lls, self.table)

    def render(self) -> DemoStep:
        """One vector per object in table order: ``[x, y, rx, ry, d, *tail]``,
        ``tail`` one of ``tails``; an object with no position is all zeros.
        The kind's ``_features`` hook, if any, then writes its own channels."""
        gx, gy = self.grip
        held, block_pos, fixture_pos = self.held, self.block_pos, self.fixture_pos
        block_tail, held_tail, fixture_tail = self.tails
        objs = {}
        for name in self.table.names:
            pos = block_pos.get(name)
            if pos is not None:
                tail = held_tail if name == held else block_tail
            else:
                pos = fixture_pos.get(name)
                if pos is None:
                    objs[name] = [0.0] * self.obj_dim
                    continue
                tail = fixture_tail
            x, y = pos
            rx, ry = x - gx, y - gy
            dx, dy = abs(rx), abs(ry)
            objs[name] = [x, y, rx, ry, dx if dx > dy else dy, *tail]
        if self._features is not None:
            self._features(objs)
        return DemoStep([gx, gy, 0.0 if held is not None else 1.0], objs, None)

    def oracle_skill(self, hla: GroundAction) -> list:
        """The scripted action for ``hla``.  Pick and place(Goal), which every
        family has, act here; the family's ``_skill`` takes its other schemata
        (blocks has none)."""
        sch = self.domain.schemata[hla.schema_id].name
        names = [self.table.names[o] for o in hla.args]
        if sch == "pick":
            target = self.block_pos.get(names[0])
            if target is None or self.held == names[0]:
                return [0.0, 0.0, 0.0]
            return self._approach_grasp(target)
        if sch in ("place", "placeGoal"):  # (?x ?fixture ...)
            return self._carry(names[0], self.fixture_pos.get(names[1]))
        return self._skill(sch, names)

    def _move_gripper(self, action) -> float:
        """Check the action, ACTION_DIM numbers ``[x, y, grip]`` read as floats;
        move by x and y clipped to [-1, 1]; return grip clipped likewise."""
        if len(action) != ACTION_DIM:
            raise BisonError("LL action must have %d values, got %d" % (ACTION_DIM, len(action)))
        x, y, g = map(float, action)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(g)):
            raise BisonError("non-finite LL action")
        x, y, g = _clip(x, -1.0, 1.0), _clip(y, -1.0, 1.0), _clip(g, -1.0, 1.0)
        gx, gy = self.grip
        self.grip = (_clip(gx + x * DELTA, ARENA_LO, ARENA_HI),
                     _clip(gy + y * DELTA, ARENA_LO, ARENA_HI))
        if self.held is not None:
            self.block_pos[self.held] = self.grip
        return g

    def _grasp_nearest(self, g: float, graspable=None):
        """Close on the nearest in-range block once the command has dwelled.

        The dwell makes grasping (like releasing) an intentful act: demos keep
        approaching while the command persists, so the deep approach shell is
        supervised, and command-sign noise from a cloned controller is inert.
        """
        if self.held is not None:
            return
        if g <= GRIP_ON:
            self.grasp_count = 0
            return
        self.grasp_count += 1
        if self.grasp_count < GRIP_DWELL:
            return
        gx, gy = self.grip
        best, best_d = None, EPS
        for name, (x, y) in self.block_pos.items():
            if graspable is not None and not graspable(name):
                continue
            d = max(abs(x - gx), abs(y - gy))
            if d < best_d:
                best, best_d = name, d
        if best is not None:
            self.held = best
            self.block_pos[best] = self.grip
            self.grasp_count = 0
            self.release_count = 0

    def _maybe_release(self, g: float):
        if self.held is None or g >= -GRIP_ON:
            self.release_count = 0
            return
        self.release_count += 1
        if self.release_count >= GRIP_DWELL:
            self.held = None
            self.release_count = 0


class BlocksEnv(SimEnv):
    """Blocks / BlocksNoisy / Factory: place every block on its goal pad.

    Noisy: each block resting on its goal pad teleports away with per-step
    probability.  Factory: placing an original block spawns a new block with a
    new goal pad (once per original).
    """

    def __init__(self, config: EnvConfig):
        super().__init__(config)
        self.goal_pad: dict = {}
        self.spawn_pending: list = []
        self.spawn_count = 0

    def reset(self):
        n = self.config.n_objects
        names_b = ["b%d" % i for i in range(n)]
        names_p = ["p%d" % i for i in range(n)]
        for name in names_b + names_p:
            self.table.intern(name)
        for name in names_b:
            self.block_pos[name] = self._sample_free()
        for name in names_p:
            self.fixture_pos[name] = self._sample_free()
        perm = self.rng.permutation(n)
        self.goal_pad = {names_b[i]: names_p[perm[i]] for i in range(n)}
        self.goal = frozenset(self.fact("at", b, p) for b, p in self.goal_pad.items())
        self.spawn_pending = list(names_b) if self.config.kind == "factory" else []
        self.grip = tuple(self.rng.uniform(0.2, 0.8, 2).tolist())
        return self.render(), self.goal

    # own attributes: perfbench/tracing.py wraps them for this class alone
    render = SimEnv.render
    step = SimEnv.step
    oracle_skill = SimEnv.oracle_skill

    def _dynamics(self):
        # a block rests at its goal unheld within EPS of its goal pad (∞-norm)
        held, block_pos, fixture_pos, goal_pad = (
            self.held, self.block_pos, self.fixture_pos, self.goal_pad)
        # factory spawning: once per original block, at first placement
        if self.spawn_pending:
            for name in list(self.spawn_pending):
                x, y = block_pos[name]
                px, py = fixture_pos[goal_pad[name]]
                if name != held and abs(x - px) < EPS and abs(y - py) < EPS:
                    self.spawn_pending.remove(name)
                    k = self.config.n_objects + self.spawn_count
                    self.spawn_count += 1
                    nb, np_ = "b%d" % k, "p%d" % k
                    self.table.intern(nb)
                    self.table.intern(np_)
                    block_pos[nb] = self._sample_free()
                    fixture_pos[np_] = self._sample_free()
                    goal_pad[nb] = np_
                    self.goal = self.goal | {self.fact("at", nb, np_)}
        # exogenous teleports of goal-satisfying blocks
        p = self.config.teleport_prob
        if p > 0.0:
            random = self.rng.random
            for name, (x, y) in list(block_pos.items()):
                px, py = fixture_pos[goal_pad[name]]
                if (name != held and abs(x - px) < EPS and abs(y - py) < EPS
                        and random() < p):
                    block_pos[name] = self._sample_free()


class PickPlaceEnv(SimEnv):
    """Example-style transport world: discrete locations, a mobile gripper.

    The robot's location abstraction (rAt) is its nearest pad, so transits
    flip the abstraction exactly once between two separated pads.
    """

    # pads on a triangle/fan so straight transit paths stay out of third-pad
    # Voronoi cells (keeps HL traces minimal)
    PAD_SPOTS = [(0.2, 0.2), (0.5, 0.8), (0.8, 0.2), (0.15, 0.55), (0.85, 0.55),
                 (0.5, 0.33), (0.2, 0.85), (0.8, 0.85)]
    # the last object's goal must avoid its own pad and n - 1 other goals
    max_objects = len(PAD_SPOTS) - 1

    def reset(self):
        n = self.config.n_objects
        k = min(n + 2, len(self.PAD_SPOTS))
        names_o = ["obj%d" % i for i in range(n)]
        names_l = ["loc%d" % i for i in range(k)]
        for name in names_o + names_l:
            self.table.intern(name)
        for i, name in enumerate(names_l):
            self.fixture_pos[name] = self.PAD_SPOTS[i]
        if self.config.start_at_block is True:
            start_pad = names_l[1]
        elif self.config.start_at_block is False:
            start_pad = names_l[0]
        else:
            start_pad = names_l[int(self.rng.integers(k))]
        # object i rests on pad i+1; goals on distinct pads, avoiding the
        # robot's start pad when possible (keeps transport demos 3-location)
        goals = {}
        for i, name in enumerate(names_o):
            home = names_l[(i + 1) % k]
            hx, hy = self.fixture_pos[home]
            jx, jy = self.rng.uniform(-EPS / 4, EPS / 4, 2).tolist()
            self.block_pos[name] = (hx + jx, hy + jy)
            choices = [l for l in names_l if l != home and l not in goals.values()]
            if len(choices) > 1 and start_pad in choices:
                choices.remove(start_pad)
            goals[name] = choices[int(self.rng.integers(len(choices)))]
        self.goal = frozenset(self.fact("at", o, l) for o, l in goals.items())
        self.grip = self.fixture_pos[start_pad]
        return self.render(), self.goal

    def _skill(self, sch: str, names: list) -> list:
        # the domain is untyped: a planner may bind move's location to a block
        target = self.fixture_pos.get(names[1]) if sch == "move" else None
        return [0.0, 0.0, 0.0] if target is None else self._goto(target, 0.0)


class GachaEnv(SimEnv):
    """Gacha-lite: produce blocks of goal colours from a box and tray them.

    The box dispenses a random-colour capsule when its lever is actuated while
    the lid is closed and the box is empty (rolls can jam).  A capsule inside
    the closed box is hidden: its feature vector is zeroed and it contributes
    no facts.  Opening the lid reveals it.
    """

    BOX = (0.15, 0.5)
    LID = (0.15, 0.62)
    LEVER = (0.15, 0.38)
    DISCARD = [(0.30, 0.08), (0.42, 0.08), (0.54, 0.08), (0.66, 0.08),
               (0.45, 0.92), (0.60, 0.92)]
    TRAY_X, TRAY_Y0, TRAY_DY = 0.85, 0.2, 0.15  # tray i sits at y = Y0 + i * DY
    # goal colour i is trayed on tray i, so the n goal trays must fit the arena
    max_objects = int((ARENA_HI - TRAY_Y0) / TRAY_DY) + 1
    tails = (_tail(GACHA_OBJ_DIM, G_BLOCK), _tail(GACHA_OBJ_DIM, B_HELD, G_BLOCK),
             _tail(GACHA_OBJ_DIM, G_TRAY))

    def __init__(self, config: EnvConfig):
        super().__init__(config)
        self.n_colours = config.n_objects + 1
        self.lid_open = False
        self.capsule: Optional[str] = None   # block currently inside the box
        self.block_colour: dict = {}
        self.roll_count = 0
        # (colour object, its tray, the 1-based colour index both render)
        self.colour_objects = [("c%d" % i, "t%d" % i, i + 1.0)
                               for i in range(self.n_colours)]

    def reset(self):
        n = self.config.n_objects
        k = self.n_colours
        self.table.intern("box0")
        self.fixture_pos["box0"] = self.BOX
        for i in range(k):
            self.table.intern("c%d" % i)
        for i in range(k):
            self.table.intern("t%d" % i)
            self.fixture_pos["t%d" % i] = (self.TRAY_X, self.TRAY_Y0 + self.TRAY_DY * i)
        self.goal = frozenset(self.fact("achievedGoal", "c%d" % i) for i in range(n))
        self.grip = (0.5, 0.5)
        return self.render(), self.goal

    def _features(self, objs: dict):
        """Write gacha's channels into render's vectors: each capsule's,
        tray's and colour object's colour index, the box's flag and state in
        place of the tray flag, and the all-zero vector of a capsule hidden
        in the closed box."""
        for name, colour in self.block_colour.items():
            objs[name][G_CIDX] = colour + 1.0
        for cname, tname, cidx in self.colour_objects:
            objs[cname][G_CIDX] = objs[tname][G_CIDX] = cidx
        box = objs["box0"]
        box[G_TRAY], box[G_BOX] = 0.0, 1.0
        box[G_BSTATE] = float(self.lid_open) + 2.0 * (self.capsule is not None)
        if self.capsule is not None and not self.lid_open:
            objs[self.capsule] = [0.0] * GACHA_OBJ_DIM

    def _grip(self, g: float):
        # a rising command actuates the lid or the lever under the gripper
        rising = g > GRIP_ON >= self.prev_grip_cmd
        if rising and self.held is None and _near(self.grip, self.LID):
            self.lid_open = not self.lid_open
        elif rising and self.held is None and _near(self.grip, self.LEVER):
            if not self.lid_open and self.capsule is None:
                if self.rng.random() >= JAM_PROB:
                    name = "g%d" % self.roll_count
                    self.roll_count += 1
                    self.table.intern(name)
                    self.block_pos[name] = self.BOX
                    self.block_colour[name] = int(self.rng.integers(self.n_colours))
                    self.capsule = name
        elif not (_near(self.grip, self.LID) or _near(self.grip, self.LEVER)):
            self._grasp_nearest(g, graspable=lambda n: n != self.capsule or self.lid_open)
            if self.held == self.capsule:
                self.capsule = None
        self.prev_grip_cmd = g

    def _skill(self, sch: str, names: list) -> list:
        if sch in ("open", "close"):
            return self._approach_actuate(self.LID)
        if sch == "roll":
            return self._approach_actuate(self.LEVER)
        # discard, the one schema left: oracle_skill takes pick and placeGoal
        slot = int(names[0][1:]) if names[0][1:].isdigit() else 0
        return self._carry(names[0], self.DISCARD[slot % len(self.DISCARD)])


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------

@dataclass
class _Family:
    """What one env family's kinds share.  ``labeller`` is the name of a
    module-level labelling function, looked up each time a labeller is made so
    that it can be rebound; ``label_preds`` are the predicates it reads, in its
    unpacking order."""

    domain_text: str
    policy_text: str
    labeller: str
    label_preds: tuple
    env_class: type
    obj_dim: int         # object feature width

    @cached_property
    def domain(self) -> Domain:
        return parse_domain(self.domain_text)

    @cached_property
    def policy(self) -> HLPolicy:
        return parse_policy(self.policy_text, self.domain)

    @cached_property
    def label_ids(self) -> tuple:
        return tuple(self.domain.pred_ids[name] for name in self.label_preds)


_BLOCKS = _Family(BLOCKS_DOMAIN_TEXT, BLOCKS_POLICY_TEXT, "label_blocks",
                  ("gripperFree", "holding", "clear", "at"), BlocksEnv, BLOCKS_OBJ_DIM)
_PICKPLACE = _Family(PICKPLACE_DOMAIN_TEXT, PICKPLACE_POLICY_TEXT, "label_pickplace",
                     ("free", "hold", "rAt", "at"), PickPlaceEnv, BLOCKS_OBJ_DIM)
_GACHA = _Family(GACHA_DOMAIN_TEXT, GACHA_POLICY_TEXT, "label_gacha",
                 ("gripperFree", "holding", "clear", "at", "colourOf", "trayColour",
                  "in", "opened", "closed", "achievedGoal"), GachaEnv, GACHA_OBJ_DIM)

KINDS = {"blocks": _BLOCKS, "blocks-noisy": _BLOCKS, "factory": _BLOCKS,
         "gacha": _GACHA, "pickplace": _PICKPLACE}
ENV_KINDS = tuple(KINDS)


def _family(kind: str) -> _Family:
    if kind not in KINDS:
        raise BisonError("unknown env kind %r" % kind)
    return KINDS[kind]


def env_domain(kind: str) -> Domain:
    return _family(kind).domain


def builtin_policy(kind: str) -> HLPolicy:
    return _family(kind).policy


def make_labeller(kind: str) -> Callable:
    return globals()[_family(kind).labeller]


def obj_dim(kind: str) -> int:
    return _family(kind).obj_dim


def max_objects(kind: str) -> Optional[int]:
    """The most objects the kind's layout has room for (None: no limit)."""
    return _family(kind).env_class.max_objects


def make_env(config: EnvConfig) -> SimEnv:
    return _family(config.kind).env_class(config)


def episode_seed(base_seed: int, episode: int) -> int:
    return base_seed * 10007 + episode


def generate_demos(config: EnvConfig, count: int):
    """Oracle episodes as Demo records; only goal-achieving episodes are kept.

    Episode e runs with seed base·10007+e.  For pickplace, episode parity
    alternates the robot's start (at the block's pad / away from it) so both
    demo shapes appear.
    """
    demos = []
    cap = max(count * 5, count + 20)
    ep = 0
    while len(demos) < count and ep < cap:
        cfg = replace(config, seed=episode_seed(config.seed, ep))
        if config.kind == "pickplace" and config.start_at_block is None:
            cfg = replace(cfg, start_at_block=(ep % 2 == 0))
        env = make_env(cfg)
        record = []
        result = runner.run_episode(env, runner.Executor("oracle"), record=record)
        ep += 1
        if result.success:
            goal_names = tuple(
                tuple([env.domain.predicates[f[0]].name]
                      + [env.table.names[o] for o in f[1:]])
                for f in sorted(env.goal))
            demos.append(Demo(goal_names, record))
    return demos
