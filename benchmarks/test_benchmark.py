"""Tests of the benchmark itself: seeded inputs, input limits, checks that
can fail, the tracer's bookkeeping and the scaling to the reference kernel.

    python3 -m pytest benchmarks
"""

import time

import pytest

import run  # puts this checkout's src/ on the path
from run import cs

import checks
import gen
import machine
import spans
from coordsem import boolean, implicature, prospect
from coordsem.formula import Not, Xor, atom_names, or_nodes, subformulas

SEEDS = (0, 1, 2, 17)
BATCHES = {"options": gen.options_batch, "implicature": gen.implicature_batch}


@pytest.mark.parametrize("workload", sorted(BATCHES))
def test_a_seed_gives_the_same_inputs(workload):
    make = BATCHES[workload]
    assert make(5) == make(5)
    assert [i.text for i in make(5)] != [i.text for i in make(6)]


@pytest.mark.parametrize("seed", SEEDS)
def test_options_inputs_stay_within_limits(seed):
    items = gen.options_batch(seed)
    formulas = [cs.parse(i.text) for i in items]
    # any two items together stay within the truth-table limit of compare
    assert len({n for f in formulas for n in atom_names(f)}) <= boolean.ATOM_LIMIT
    for item, f in zip(items, formulas):
        assert len(or_nodes(f)) == item.ors <= prospect.COEFF_LIMIT
        assert len(atom_names(f)) == item.atoms
        assert not any(isinstance(n, (Not, Xor)) for _, n in subformulas(f))


@pytest.mark.parametrize("seed", SEEDS)
def test_implicature_inputs_stay_within_limits(seed):
    for item in gen.implicature_batch(seed):
        f = cs.parse(item.text)
        assert len(atom_names(f)) == item.atoms <= implicature.EPISTEMIC_ATOM_LIMIT
        assert len(or_nodes(f)) == item.ors
        assert set(item.opinionated) <= set(range(item.ors))


def test_tail_costs_the_same_for_every_seed():
    """The tail's structure does not depend on the seed: renaming atoms in
    order of first appearance gives the same text."""
    def skeleton(text):
        names = {}
        return [names.setdefault(w, len(names)) if w[0].isupper() else w
                for w in text.replace("(", " ( ").replace(")", " ) ").split()]

    for make, tail in ((gen.options_batch, gen.OPTIONS_TAIL),
                       (gen.implicature_batch, gen.IMPLICATURE_TAIL)):
        size = sum(copies for *_, copies in tail)
        shapes = [[skeleton(i.text.replace(":iterable", "")) for i in make(s)[:size]]
                  for s in (3, 4)]
        assert shapes[0] == shapes[1]


# ---------------------------------------------------------------------------
# Each check passes on the program's output and fails on a planted wrong one.

SUMMARY = checks.REPRODUCE_SUMMARY.encode()


def test_reproduce_check():
    good = b"MATCH  x\n" + SUMMARY + b"\n"
    assert checks.check_reproduce(0, good, good) == []
    assert checks.check_reproduce(1, good, good)
    wrong = b"MISMATCH  x\n68 claims, 67 match, 1 mismatch\n"
    assert checks.check_reproduce(0, wrong, wrong)
    assert checks.check_reproduce(0, good.replace(b"x", b"y"), good)


def _options_outputs(text):
    f = cs.parse(text)
    return f, cs.denote_options(f), cs.judge(f)


def test_options_check_accepts_the_program():
    f, options, judgment = _options_outputs("(A or B) and (A or C)")
    assert checks.check_options(f, 2, options, judgment) == []
    f, options, judgment = _options_outputs("A or A")
    assert checks.check_options(f, 1, options, judgment) == []


def test_options_check_rejects_planted_errors():
    f, options, judgment = _options_outputs("(A or B) and (A or C)")
    assert checks.check_options(f, 2, prospect.OptionSet(options.prospects[:-1]), judgment)
    stranger = prospect.OptionSet(options.prospects + (prospect.Prospect((("D", 1),)),))
    assert checks.check_options(f, 2, stranger, judgment)  # support fails the formula
    assert checks.check_options(f, 1, options, judgment)  # more than 2^k options
    no_doubles = prospect.Judgment(prospect.Category.WEIRD_DOUBLE_IMAGE)
    assert checks.check_options(f, 2, options, no_doubles)
    relabelled = prospect.Judgment(prospect.Category.ACCEPTABLE, judgment.double_images)
    assert checks.check_options(f, 2, options, relabelled)
    f, options, judgment = _options_outputs("A or A")
    far_node = prospect.Judgment(prospect.Category.ODD_HOBSON, (), (3,))
    assert checks.check_options(f, 1, options, far_node)


def test_comparison_check():
    left, right = _options_outputs("A or (B and C)"), _options_outputs("(A or B) and (A or C)")
    cmp = cs.compare(left[0], right[0])
    args = (left[0], right[0], left[1], right[1], left[2], right[2])
    assert checks.check_comparison(*args, cmp) == []
    claims_equal = type(cmp)(cmp.boolean, type(cmp.options)(True), cmp.judgment_left,
                             cmp.judgment_right)
    assert checks.check_comparison(*args, claims_equal)
    shared = next(p for p in right[1] if p in left[1])  # B+C is in both sets
    bad_witness = type(cmp)(cmp.boolean, type(cmp.options)(False, shared),
                            cmp.judgment_left, cmp.judgment_right)
    assert checks.check_comparison(*args, bad_witness)
    swapped = type(cmp)(cmp.boolean, cmp.options, cmp.judgment_right, cmp.judgment_left)
    assert checks.check_comparison(*args, swapped)


def test_equivalence_check():
    f, g = cs.parse("A or B"), cs.parse("A and B")
    assert checks.check_equivalence(f, g, cs.equivalent(f, g)) == []
    assert checks.check_equivalence(f, f, cs.equivalent(f, f)) == []
    assert checks.check_equivalence(f, g, cs.equivalent(f, f))  # claims valid
    all_true = {"A": True, "B": True}
    assert checks.check_equivalence(
        f, g, boolean.LawVerdict(boolean.Verdict.INVALID, counterexample=all_true))


def test_projection_check():
    f = cs.parse("A or B")
    report = cs.project(f, cs.Mode.GAZDAR)
    assert checks.check_projection(f, report) == []
    a, not_a = cs.parse("A"), cs.parse("not A")
    k = cs.EpistemicConstraint
    clash = (k(cs.Polarity.K, a, cs.Provenance.ASSERTION, ()),
             k(cs.Polarity.K, not_a, cs.Provenance.ASSERTION, ()))
    inconsistent = cs.ImplicatureReport(cs.Mode.GAZDAR, clash, ())
    assert checks.check_projection(f, inconsistent)
    loose = implicature.Suppression(clash[0], (k(cs.Polarity.K, a, cs.Provenance.ASSERTION, ()),))
    assert checks.check_projection(
        f, cs.ImplicatureReport(cs.Mode.GAZDAR, report.accepted, (loose,)))
    error = cs.WorkbenchError("asserted content is epistemically unsatisfiable")
    assert checks.check_projection(f, error)
    contradiction = cs.parse("A and not A")
    with pytest.raises(cs.WorkbenchError) as raised:
        cs.project(contradiction)
    assert checks.check_projection(contradiction, raised.value) == []


# ---------------------------------------------------------------------------
# Tracer

def _small(items):
    """Body items with at most 4 or-nodes: quick, and every layer used."""
    return [i for i in items if i.ors <= 4][:60]


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


@pytest.mark.parametrize("make", [run.OptionsWorkload, run.ImplicatureWorkload],
                         ids=["options", "implicature"])
def test_counts_repeat_and_self_times_fit_in_ops(make):
    batch = _small(BATCHES[make.name](3))
    workloads = [make(batch) for _ in range(2)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        units = [w.run_pass(tracer) for w in workloads]
    finally:
        tracer.uninstall()
    assert all(u.failed == 0 for u in units)
    first, second = (u.traced for u in units)
    assert (first.calls, first.counts) == (second.calls, second.counts)
    assert first.calls["formula.parse"] == len(batch)
    for unit in (first, second):
        assert all(ms >= 0 for ms in unit.self_ms.values())
        assert len(unit.op_self_s) == len(unit.op_wall_s) == len(batch)
        for self_s, wall_s in zip(unit.op_self_s, unit.op_wall_s):
            assert 0 <= self_s <= wall_s
        assert sum(unit.op_self_s) == pytest.approx(sum(unit.self_ms.values()) / 1e3)


def test_uninstall_restores_the_package():
    originals = {name: getattr(mod, attr) for mod, attr, name in spans.SPANNED}
    t = spans.Tracer()
    t.install()
    assert cs.parse is not originals["formula.parse"]
    t.uninstall()
    assert {name: getattr(mod, attr) for mod, attr, name in spans.SPANNED} == originals
    assert cs.parse is originals["formula.parse"]


def test_calls_and_counts_of_one_op(tracer):
    f = cs.parse("(A or B) and (A or C)")
    tracer.take()
    with tracer.op():
        cs.judge(f)
    unit = tracer.take()
    # one denote_options for f, two per or-node for the Hobson check
    assert unit.calls == {"prospect.judge": 1, "prospect.denote_options": 5}
    assert unit.counts["prospect.coeff_assignments"] == 4 + 4 * 1
    assert unit.counts["prospect.options"] == 4 + 4 * 1
    assert set(unit.self_ms) == set(unit.calls)
    assert len(unit.op_self_s) == len(unit.op_wall_s) == 1
    assert 0 <= unit.op_self_s[0] <= unit.op_wall_s[0]


def test_a_child_span_is_not_charged_to_its_caller(monkeypatch):
    """judge calls denote_options five times; slowed by 10 ms each, the
    children's self time holds the 50 ms and judge's own does not."""
    original = prospect.denote_options

    def slow(f):
        time.sleep(0.01)
        return original(f)

    monkeypatch.setattr(prospect, "denote_options", slow)
    f = cs.parse("(A or B) and (A or C)")
    t = spans.Tracer()
    t.install()
    try:
        with t.op():
            cs.judge(f)
    finally:
        t.uninstall()
    unit = t.take()
    assert unit.self_ms["prospect.denote_options"] >= 50
    assert unit.self_ms["prospect.judge"] < 10
    assert unit.op_self_s[0] <= unit.op_wall_s[0]


def test_typical_leaves_out_the_slowest_tenth():
    assert machine.typical([1.0] * 9 + [100.0]) == 1.0
    assert machine.typical([2.0, 4.0]) == 3.0
    assert machine.typical([5.0]) == 5.0


def test_the_pacer_samples_a_share_of_the_op_time():
    pacer = machine.Pacer()
    pacer.after_op(0.0)
    assert pacer.samples == []
    pacer.after_op(0.2)
    spent = sum(pacer.samples)
    assert machine.SAMPLE_SHARE * 0.2 <= spent <= machine.SAMPLE_SHARE * 0.2 + max(pacer.samples)
    assert pacer.scale() == pytest.approx(
        machine.REFERENCE_MS / 1e3 / machine.typical(pacer.samples))


def test_scaled_op_times_follow_the_kernel():
    """Two runs of the same units on machines whose kernel differs by 2x
    report the same scaled times."""
    units = [run.Unit([0.010, 0.002], 0), run.Unit([0.012, 0.002], 0)]
    slow = [run.Unit([2 * t for t in u.op_s], 0) for u in units]
    fast_ms = run.op_ms(units, scale=1.0)
    assert fast_ms == pytest.approx([11.0, 2.0])
    assert run.op_ms(slow, scale=0.5) == pytest.approx(fast_ms)
    assert run.ops_per_s(units, 1.0) == pytest.approx(2 / 0.013)
