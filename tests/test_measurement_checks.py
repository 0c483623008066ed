"""The batched measurement check against the per-measurement reference.

``Realization.validate_measurements`` checks each party in one pass
(``qmath.validate_party``); ``measurement_reference`` keeps the loop it
replaced.  On every device here both raise the same message, or neither
raises, and ``ProjectiveMeasurement.validate`` agrees with the reference's
``validate`` on each measurement.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_unitary
from measurement_reference import reference_validate, reference_validate_measurements

from bellselftest.qmath import ProjectiveMeasurement, dichotomic_qubit_measurement
from bellselftest.scenario import ClassicalQuantumState, Realization, ScenarioShape
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of

FIG2 = SchmidtVector(np.array([1 / 6, 1 / 8, 1 / 6, 1 / 6, 1 / 8, 1 / 4]))
D = FIG2.d
LAST = 2 * len(protocol_of(FIG2).tree.edges)   # the last setting of each party


def message(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def assert_same_verdict(r: Realization):
    """The batched check raises the reference's message, or neither raises;
    each measurement alone gets the reference's verdict too."""
    want = message(reference_validate_measurements, r)
    assert message(r.validate_measurements) == want
    for m in r.alice + r.bob:
        assert message(m.validate) == message(reference_validate, m)
    return want


@pytest.fixture(scope="module")
def fig2_device():
    return canonical_qudit_realization(FIG2, protocol_of(FIG2))


def with_effects(r: Realization, party: str, setting: int, change) -> Realization:
    """r with change(effects) applied to a list of one measurement's effects."""
    ms = list(getattr(r, party))
    effects = list(ms[setting].effects)
    change(effects)
    ms[setting] = ProjectiveMeasurement(dim=ms[setting].dim, effects=tuple(effects))
    return replace(r, **{party: tuple(ms)})


def with_measurement(r: Realization, party: str, setting: int, m) -> Realization:
    ms = list(getattr(r, party))
    ms[setting] = m
    return replace(r, **{party: tuple(ms)})


def halve(i):
    def change(effects):
        effects[i] = 0.5 * effects[i]
    return change


def zero(i):
    def change(effects):
        effects[i] = np.zeros_like(effects[i])
    return change


def misshape(i):
    def change(effects):
        effects[i] = np.zeros((D + 1, D + 1))
    return change


def nearly_orthogonal(effects, first=0, overlap=1.3e-10, angle=np.pi / 8, second=None):
    """Effects m = first and n = second (first + 1 by default) become the
    rank-one projectors onto e_m and onto the unit vector along
    overlap e_m + e_n, both rotated by ``angle`` in the span of e_m and
    e_n.  They sum to that span's identity within 0.71 overlap in every
    entry, while their product has an entry of 0.85 overlap: only the
    orthogonality check sees it."""
    span = [first, first + 1 if second is None else second]
    rot = np.eye(len(effects[0]))
    rot[np.ix_(span, span)] = [[np.cos(angle), -np.sin(angle)],
                               [np.sin(angle), np.cos(angle)]]
    vectors = np.zeros((2, len(rot)))
    vectors[0, span[0]] = 1.0
    vectors[1, span] = np.array([overlap, 1.0]) / np.hypot(overlap, 1.0)
    for i, v in zip(span, vectors):
        u = rot @ v
        effects[i] = np.outer(u, u)


def late_overlap(effects):
    """The last two effects are nearly orthogonal as above, and the others
    project onto a seeded basis of the span of e_0 .. e_{D-3}, so every
    pair before the faulty one is multiplied too."""
    u = random_unitary(np.random.default_rng(5), D - 2)
    for i in range(D - 2):
        effects[i] = np.zeros((D, D), dtype=complex)
        effects[i][:D - 2, :D - 2] = np.outer(u[:, i], u[:, i].conj())
    nearly_orthogonal(effects, first=D - 2)


def compose(*changes):
    def change(effects):
        for c in changes:
            c(effects)
    return change


def faults(r, *steps):
    """r with each (party, setting, change or measurement) step applied."""
    for party, setting, what in steps:
        if isinstance(what, ProjectiveMeasurement):
            r = with_measurement(r, party, setting, what)
        else:
            r = with_effects(r, party, setting, what)
    return r


WIDER = ProjectiveMeasurement(dim=D + 1, effects=tuple(np.diag(np.eye(D + 1)[k])
                                                       for k in range(D)))
FEWER = dichotomic_qubit_measurement(0.3, dim=D, span=(0, 1), pad_outcomes=2)
DIAGONAL = ProjectiveMeasurement(dim=D, effects=tuple(np.diag(np.eye(D)[k]) for k in range(D)))


def far_and_near_overlaps(effects):
    """Effects 0 and 3 overlap, and so do 1 and 2, which lie closer."""
    nearly_orthogonal(effects, first=0, second=3)
    nearly_orthogonal(effects, first=1, second=2)

CASES = {
    "projector_first": ([("alice", 0, halve(0))], "effect 0 is not a projector within 1e-10"),
    "projector_middle": ([("alice", 0, halve(3))], "effect 3 is not a projector within 1e-10"),
    "projector_last": ([("alice", 0, halve(D - 1))],
                       f"effect {D - 1} is not a projector within 1e-10"),
    "shape_after_projector": ([("alice", 0, compose(halve(1), misshape(4)))],
                              "effect 1 is not a projector within 1e-10"),
    "shape": ([("alice", 2, misshape(3))],
              f"effect 3 has shape {(D + 1, D + 1)}, expected {(D, D)}"),
    "incomplete_sum": ([("alice", 0, zero(2))], "effects do not sum to the identity"),
    "non_orthogonal": ([("alice", 0, nearly_orthogonal)],
                       "effects 0 and 1 are not orthogonal"),
    "late_non_orthogonal": ([("alice", 0, late_overlap)],
                            f"effects {D - 2} and {D - 1} are not orthogonal"),
    "far_pair_first": ([("alice", 0, DIAGONAL), ("alice", 0, far_and_near_overlaps)],
                       "effects 0 and 3 are not orthogonal"),
    "dim_mismatch": ([("alice", 1, WIDER)], "Alice measurement dimension/outcome mismatch"),
    "outcome_mismatch": ([("bob", 2, FEWER)], "Bob measurement dimension/outcome mismatch"),
    "sum_before_projector": ([("alice", 1, zero(0)), ("alice", 3, halve(0))],
                             "effects do not sum to the identity"),
    "projector_before_sum": ([("alice", 1, halve(1)), ("alice", 3, zero(0))],
                             "effect 1 is not a projector within 1e-10"),
    "orthogonality_before_mismatch": ([("alice", 0, nearly_orthogonal), ("alice", 1, WIDER)],
                                      "effects 0 and 1 are not orthogonal"),
    "mismatch_before_projector": ([("bob", 1, FEWER), ("bob", 2, halve(0))],
                                  "Bob measurement dimension/outcome mismatch"),
    "shape_before_mismatch": ([("bob", 1, misshape(5)), ("bob", 2, WIDER)],
                              f"effect 5 has shape {(D + 1, D + 1)}, expected {(D, D)}"),
    "alice_before_bob": ([("bob", 0, halve(0)), ("alice", LAST, zero(1))],
                         "effects do not sum to the identity"),
    "bob_last": ([("bob", LAST, halve(1))], "effect 1 is not a projector within 1e-10"),
}


@pytest.mark.parametrize("case", CASES)
def test_first_fault_matches_reference(fig2_device, case):
    steps, want = CASES[case]
    assert assert_same_verdict(faults(fig2_device, *steps)) == want


def qubit_party_device(settings: int) -> Realization:
    """A qubit device with many two-outcome settings per party."""
    shape = ScenarioShape(1, 1, settings, settings, 2, 2)
    cq = ClassicalQuantumState(shape=shape, dims=(2, 2), states={(0, 0): np.eye(4) / 4})
    ms = tuple(dichotomic_qubit_measurement(0.1 * x) for x in range(settings))
    return Realization(cq=cq, alice=ms, bob=ms)


def test_many_small_measurements():
    """A party of 5000 qubit measurements (10,000 nonzero effects) is
    checked in memory linear in the settings, and its last measurement's
    fault is found."""
    r = qubit_party_device(5000)
    tracemalloc.start()
    try:
        r.validate_measurements()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20   # the party's effects take 0.64 MB
    r = with_effects(r, "bob", 4999, lambda e: nearly_orthogonal(e, first=0))
    assert assert_same_verdict(r) == "effects 0 and 1 are not orthogonal"


@pytest.mark.parametrize("d", [2, 6, 8, 16])
def test_canonical_devices_pass(d):
    c = SchmidtVector(np.arange(1.0, d + 1.0))
    assert assert_same_verdict(canonical_qudit_realization(c, protocol_of(c))) is None


def random_measurement(rng, d: int, n: int, tilt: float = 0.0) -> ProjectiveMeasurement:
    """n effects in dimension d: a random unitary's columns split into at
    most n nonempty groups, the rest zero, in a random order.  ``tilt``
    turns the first column towards the last by that angle, which leaves the
    effects projectors if the two columns fall in different effects (but
    not orthogonal ones), and not projectors if they fall in the same."""
    cuts = np.sort(rng.choice(np.arange(1, d), size=min(n, d) - 1, replace=False))
    u = random_unitary(rng, d)
    u[:, 0] = np.cos(tilt) * u[:, 0] + np.sin(tilt) * u[:, -1]
    effects = [g @ g.conj().T for g in np.split(u, cuts, axis=1)]
    effects += [np.zeros((d, d), dtype=complex)] * (n - len(effects))
    return ProjectiveMeasurement(dim=d, effects=tuple(effects[i] for i in rng.permutation(n)))


def random_device(rng, d: int, n: int, settings: int) -> Realization:
    shape = ScenarioShape(1, 1, settings, settings, n, n)
    cq = ClassicalQuantumState(shape=shape, dims=(d, d), states={(0, 0): np.eye(d * d) / d ** 2})
    return Realization(cq=cq, alice=tuple(random_measurement(rng, d, n) for _ in range(settings)),
                       bob=tuple(random_measurement(rng, d, n) for _ in range(settings)))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_valid_measurements_pass(seed):
    rng = np.random.default_rng(7300 + seed)
    d = int(rng.integers(2, 9))
    r = random_device(rng, d, int(rng.integers(2, d + 3)), int(rng.integers(1, 4)))
    assert assert_same_verdict(r) is None


def mutate(rng, m: ProjectiveMeasurement) -> ProjectiveMeasurement:
    """m with one effect changed: scaled, shifted by noise at a scale around
    the tolerance, set to zero, or given the wrong shape; or m replaced by
    a random measurement tilted by an angle around the tolerance."""
    effects = list(m.effects)
    i = int(rng.integers(len(effects)))
    kind = rng.integers(5)
    if kind == 4:
        return random_measurement(rng, m.dim, m.n_outcomes, tilt=10.0 ** rng.uniform(-10.5, -9))
    if kind == 0:
        effects[i] = effects[i] * (1 + 10.0 ** rng.uniform(-12, -1))
    elif kind == 1:
        noise = rng.standard_normal((*effects[i].shape, 2)) @ [1, 1j]
        effects[i] = effects[i] + 10.0 ** rng.uniform(-12, -8) * noise
    elif kind == 2:
        effects[i] = np.zeros_like(effects[i])
    else:
        effects[i] = np.zeros((m.dim + 1, m.dim))
    return ProjectiveMeasurement(dim=m.dim, effects=tuple(effects))


@pytest.mark.parametrize("seed", range(60))
def test_seeded_faults_match_reference(seed):
    """One to three measurements of a random device changed at random."""
    rng = np.random.default_rng(9100 + seed)
    d = int(rng.integers(2, 7))
    settings = int(rng.integers(1, 4))
    r = random_device(rng, d, int(rng.integers(2, d + 2)), settings)
    for _ in range(int(rng.integers(1, 4))):
        party = ("alice", "bob")[rng.integers(2)]
        x = int(rng.integers(settings))
        r = with_measurement(r, party, x, mutate(rng, getattr(r, party)[x]))
    assert_same_verdict(r)
