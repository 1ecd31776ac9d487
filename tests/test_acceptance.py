"""Acceptance gate: nine end-to-end checks at fixed tolerances.

Each test prints one ``ACCEPTANCE crit-N PASS`` line when it succeeds, so a
verbose run doubles as a checklist.  The frozen reference table below pins
the diabetes-demo rule metrics this implementation must reproduce; the other
checks exercise structure, equivalence against the set-based oracle, metric
critical points, duplication invariance, and scan scaling.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations

import pytest

from conftest import assert_rulesets_equal, build_pdb, random_pdb
from goalrules import MiningConfig, compute_metrics, mine
from goalrules.datasets import diabetes_database
from goalrules.metrics import UNIT_WEIGHTS, quality, support
from goalrules.preprocess import replicate
from oracle import from_database, oracle_mine, oracle_support

# Frozen reference values for the diabetes demo (tertile bins, unit weights):
# premise short names, goal label, f_g, f_all, confidence, correlation, quality.
REFERENCE_ROWS = [
    ("BMI0", "Goal0", 0.757, 0.353, 0.658, 0.36, 2.128),
    ("S50", "Goal0", 0.335, 0.156, 0.758, 0.547, 1.797),
    ("BMI0,S50", "Goal0", 0.291, 0.136, 0.833, 0.688, 1.948),
    ("BMI2", "Goal2", 0.25, 0.045, 0.769, 0.718, 1.783),
    ("BP2", "Goal2", 0.488, 0.088, 0.488, 0.374, 1.437),
    ("S42", "Goal2", 0.138, 0.025, 0.579, 0.486, 1.227),
    ("S62", "Goal2", 0.425, 0.077, 0.472, 0.356, 1.33),
    ("BMI2,BP2", "Goal2", 0.175, 0.032, 1.0, 1.0, 2.207),
    ("BMI2,S42", "Goal2", 0.038, 0.007, 1.0, 1.0, 2.044),
    ("BMI2,S62", "Goal2", 0.1, 0.018, 0.8, 0.756, 1.674),
    ("BP2,S42", "Goal2", 0.05, 0.009, 0.571, 0.477, 1.107),
    ("BP2,S62", "Goal2", 0.2, 0.036, 0.64, 0.56, 1.437),
    ("S42,S62", "Goal2", 0.088, 0.016, 0.7, 0.634, 1.437),
]


@pytest.fixture(scope="module")
def diabetes():
    return diabetes_database()


@pytest.fixture(scope="module")
def diabetes_default_run(diabetes):
    config = MiningConfig()
    start = time.perf_counter()
    ruleset = mine(diabetes, config)
    elapsed = time.perf_counter() - start
    return config, ruleset, elapsed


@pytest.fixture(scope="module")
def random_corpus():
    """220 seeded small databases mined by both engine and oracle."""
    corr_grid = [0.1, 0.25, 0.35, 0.5]
    freq_grid = [0.0, 0.01]
    cases = []
    start = time.perf_counter()
    for i in range(220):
        rng = random.Random(10_000 + i)
        pdb = random_pdb(rng)
        config = MiningConfig(
            min_corr=corr_grid[i % 4], min_f_all=freq_grid[i % 2]
        )
        oracle_rules = oracle_mine(
            from_database(pdb), len(pdb.partition_sizes), config
        )
        cases.append((pdb, config, mine(pdb, config), oracle_rules))
    return cases, time.perf_counter() - start


def test_criterion_1_reference_quality_recombines():
    worst = 0.0
    for premise, goal, f_g, f_all, conf, corr, q in REFERENCE_ROWS:
        recombined = quality(f_all, f_g, conf, corr, UNIT_WEIGHTS)
        err = abs(recombined - q)
        worst = max(worst, err)
        assert err <= 0.0015, f"{premise} => {goal}: |{recombined} - {q}| = {err}"
    print(f"ACCEPTANCE crit-1 PASS: 13 reference q values recombine, max |err| = {worst:.6f}")


def test_criterion_2_reference_frequency_ratio_constant_per_goal():
    by_goal: dict[str, list[float]] = {}
    for premise, goal, f_g, f_all, *_ in REFERENCE_ROWS:
        by_goal.setdefault(goal, []).append(f_all / f_g)
    spreads = {}
    for goal, ratios in by_goal.items():
        spread = max(ratios) - min(ratios)
        spreads[goal] = spread
        assert spread <= 0.01, f"{goal}: f_all/f_g spread {spread}"
    text = ", ".join(f"{g}={s:.4f}" for g, s in sorted(spreads.items()))
    print(f"ACCEPTANCE crit-2 PASS: f_all/f_g spread per goal ({text})")


def test_criterion_3_diabetes_structure(diabetes, diabetes_default_run):
    config, ruleset, elapsed = diabetes_default_run
    assert elapsed < 1.0, f"default mine took {elapsed:.3f}s"
    records = from_database(diabetes)

    pair_goals_ok = []
    checked_extensions = 0
    for goal, rules in enumerate(ruleset.positive):
        singles = {r.premise: r for r in rules if r.premise_len == 1}
        candidate_codes = sorted(singles)
        n_k = diabetes.partition_sizes[goal]

        for rule in rules:
            # finality must be attributable from the output alone
            has_above = any(c > rule.premise for c in candidate_codes)
            expected_final = (
                rule.metrics.correlation >= config.corr_stop
                or rule.metrics.f_all < config.min_f_all
                or not has_above
            )
            assert rule.final == expected_final, (
                f"goal {goal} premise {rule.premise:b}: final={rule.final}"
            )

        # every eligible extension of a non-final rule is in the output
        # unless it lost support or fell below the correlation floor
        present = {r.premise for r in rules}
        for rule in rules:
            if rule.final:
                continue
            for code in candidate_codes:
                if code <= rule.premise:
                    continue
                child = rule.premise | code
                checked_extensions += 1
                if child in present:
                    continue
                sup = oracle_support(
                    [i for i in range(len(diabetes.catalog)) if child >> i & 1],
                    records,
                    len(diabetes.partition_sizes),
                )
                if sum(sup) == 0:
                    continue
                metrics = compute_metrics(
                    sup[goal], sum(sup), n_k, diabetes.total, config.weights
                )
                assert metrics.correlation < config.min_corr, (
                    f"missing child {child:b} for goal {goal} "
                    f"(corr {metrics.correlation:.3f})"
                )

        # pair rules must sharpen both parents: corr up, f_all down
        pairs = [r for r in rules if r.premise_len == 2]
        if len(singles) >= 2 and pairs:
            ok = all(
                r.metrics.correlation > max(
                    singles[p].metrics.correlation for p in _split_bits(r.premise)
                )
                and r.metrics.f_all < min(
                    singles[p].metrics.f_all for p in _split_bits(r.premise)
                )
                for r in pairs
            )
            if ok:
                pair_goals_ok.append((goal, len(pairs)))

    assert checked_extensions > 0
    assert pair_goals_ok, "no goal shows the sharpening pair pattern"
    total_pairs = sum(n for _, n in pair_goals_ok)
    print(
        "ACCEPTANCE crit-3 PASS: "
        f"mine {elapsed * 1000:.1f}ms, finality attributed for all rules, "
        f"{checked_extensions} extensions accounted for, sharpening pairs on "
        f"goals {[g for g, _ in pair_goals_ok]} ({total_pairs} pairs)"
    )


def _split_bits(premise: int) -> list[int]:
    return [1 << i for i in range(premise.bit_length()) if premise >> i & 1]


def test_criterion_4_engine_matches_oracle(random_corpus):
    cases, elapsed = random_corpus
    assert len(cases) >= 200
    rules_seen = negatives_seen = 0
    for pdb, config, engine_rules, oracle_rules in cases:
        assert_rulesets_equal(engine_rules, oracle_rules, tol=1e-12)
        rules_seen += sum(len(r) for r in engine_rules.positive)
        negatives_seen += sum(len(r) for r in engine_rules.negative)
    assert negatives_seen > 0  # the negative side must be compared too
    assert elapsed < 30.0, f"corpus sweep took {elapsed:.1f}s"
    print(
        "ACCEPTANCE crit-4 PASS: "
        f"{len(cases)} random databases, engine == oracle "
        f"({rules_seen} rules, {negatives_seen} negative, {elapsed:.1f}s)"
    )


def test_criterion_5_support_bounds_on_splits(random_corpus):
    cases, _ = random_corpus
    checked = 0
    for pdb, config, engine_rules, _oracle in cases:
        records = None
        for goal, rules in enumerate(engine_rules.positive):
            n_k = pdb.partition_sizes[goal]
            for rule in rules:
                if rule.premise_len < 2:
                    continue
                if records is None:
                    records = from_database(pdb)
                bits = _split_bits(rule.premise)
                for x in bits:
                    y = rule.premise ^ x
                    sup_x = oracle_support(
                        [x.bit_length() - 1], records, len(pdb.partition_sizes)
                    )[goal]
                    sup_y = oracle_support(
                        [i for i in range(y.bit_length()) if y >> i & 1],
                        records,
                        len(pdb.partition_sizes),
                    )[goal]
                    lower = max(0, sup_x + sup_y - n_k)
                    upper = min(sup_x, sup_y)
                    assert lower <= rule.sup_k <= upper, (
                        f"split {x:b}/{y:b}: {lower} <= {rule.sup_k} <= {upper}"
                    )
                    checked += 1
    assert checked > 100, f"only {checked} splits checked"
    print(f"ACCEPTANCE crit-5 PASS: {checked} premise splits within support bounds")


def test_criterion_6_joint_confidence_dominates_parents():
    rng = random.Random(2026)
    trials = 0
    while trials < 50:
        c0, c1 = rng.randint(2, 8), rng.randint(2, 8)
        a0, b0 = rng.randint(1, c0), rng.randint(1, c0)
        a1, b1 = rng.randint(0, c1), rng.randint(0, c1)
        # both single properties must point toward goal 0
        if a0 * c1 <= a1 * c0 or b0 * c1 <= b1 * c0:
            continue
        parts = []
        for a, b, c in ((a0, b0, c0), (a1, b1, c1)):
            parts.append(
                [3] * (a * b)
                + [1] * (a * (c - b))
                + [2] * (b * (c - a))
                + [4] * ((c - a) * (c - b))
            )
        pdb = build_pdb(parts, m=3)

        sup_x = support(1, pdb)
        sup_y = support(2, pdb)
        sup_xy = support(3, pdb)
        assert sup_x == (a0 * c0, a1 * c1)
        assert sup_y == (b0 * c0, b1 * c1)
        assert sup_xy == (a0 * b0, a1 * b1)

        n0, total = c0 * c0, c0 * c0 + c1 * c1
        for sup in (sup_x, sup_y):
            lift = compute_metrics(sup[0], sum(sup), n0, total).lift
            assert lift > 1.0
        # conf(XY) >= conf(X) and conf(Y), compared in exact integers
        assert sup_xy[0] * sum(sup_x) >= sup_x[0] * sum(sup_xy)
        assert sup_xy[0] * sum(sup_y) >= sup_y[0] * sum(sup_xy)
        trials += 1
    print(
        "ACCEPTANCE crit-6 PASS: 50 two-property databases, "
        "joint confidence >= both parents whenever both lean positive"
    )


def test_criterion_7_correlation_critical_points():
    assert compute_metrics(0, 4, 5, 10).correlation == -1.0
    halfway = compute_metrics(2, 4, 5, 10)
    assert halfway.lift == 1.0
    assert halfway.correlation == 0.0
    assert compute_metrics(1, 4, 5, 10).correlation == -0.5
    assert compute_metrics(3, 4, 5, 10).correlation == 0.5
    top = compute_metrics(4, 4, 5, 15)
    assert top.lift == 3.0  # equals total/n_k, the attainable maximum
    assert top.correlation == 1.0
    print("ACCEPTANCE crit-7 PASS: correlation hits -1, -0.5, 0, 0.5, 1 exactly")


def _canonical(ruleset, factor: int) -> str:
    rows = []
    for rules in ruleset.positive:
        for r in rules:
            assert r.sup_k % factor == 0 and r.sup % factor == 0
            m = r.metrics
            rows.append(
                [
                    r.goal, r.premise, r.premise_len,
                    r.sup_k // factor, r.sup // factor,
                    m.f_g, m.f_all, m.confidence, m.lift, m.correlation, m.quality,
                    r.final,
                ]
            )
    return json.dumps(rows)


def test_criterion_8_duplication_and_threads_invariance(diabetes, diabetes_default_run):
    config, base_rules, _ = diabetes_default_run
    base = _canonical(base_rules, 1)
    for factor in (100, 1000):
        big = replicate(diabetes, factor)
        scaled_rules = mine(big, config)
        assert _canonical(scaled_rules, factor) == base
    big = replicate(diabetes, 100)
    assert _canonical(mine(big, config), 1) == _canonical(mine(big, config), 1)
    print(
        "ACCEPTANCE crit-8 PASS: x100/x1000 duplication and a repeated run "
        "reproduce the base rules byte for byte"
    )


def _batched_mine_time(big, config, min_batch=0.03):
    """Seconds per mine, averaged over a batch long enough to defeat jitter."""
    k = 1
    while True:
        start = time.perf_counter()
        for _ in range(k):
            mine(big, config)
        elapsed = time.perf_counter() - start
        if elapsed >= min_batch:
            return elapsed / k
        k *= 2


def _affine_band_fit(sizes, times, slack=0.5):
    """A line a + b*N (a, b >= 0) within ``slack`` of every point, or None.

    Two unknowns, so it suffices to scan candidate slopes where the
    per-point intercept bounds cross; each point constrains the line to
    [(1-slack)*t, (1+slack)*t].
    """
    lows = [(1 - slack) * t for t in times]
    highs = [(1 + slack) * t for t in times]
    candidates = {0.0}
    for i in range(len(sizes)):
        candidates.add(lows[i] / sizes[i])
        for j in range(len(sizes)):
            if sizes[i] != sizes[j]:
                candidates.add((lows[i] - highs[j]) / (sizes[i] - sizes[j]))
    for b in sorted(c for c in candidates if c >= 0.0):
        lo = max([0.0] + [low - b * x for low, x in zip(lows, sizes)])
        hi = min(high - b * x for high, x in zip(highs, sizes))
        if lo <= hi + 1e-12:
            return lo, b
    return None


def test_criterion_9_scan_time_scales_linearly(diabetes):
    config = MiningConfig(min_corr=0.30)
    factors = (10, 100, 1000)
    replicas = [replicate(diabetes, factor) for factor in factors]
    counts = []
    for big in replicas:
        support(1, big)  # build and warm the scan view
        ruleset = mine(big, config)
        counts.append(sum(len(r) for r in ruleset.positive))
    assert counts[0] == counts[1] == counts[2]
    assert 15 <= counts[0] <= 30, f"rule count {counts[0]} out of band"

    # interleave rounds so a slow scheduling window hits every size alike
    times = [float("inf")] * len(replicas)
    for _ in range(3):
        for i, big in enumerate(replicas):
            times[i] = min(times[i], _batched_mine_time(big, config))
    sizes = [big.total for big in replicas]
    assert times[-1] <= 2.0, f"mine at {sizes[-1]} records took {times[-1]:.2f}s"

    fit = _affine_band_fit(sizes, times)
    assert fit is not None, (
        "no affine trend within +/-50% of all points: "
        + ", ".join(f"{x}:{t * 1000:.2f}ms" for x, t in zip(sizes, times))
    )
    a, b = fit
    detail = ", ".join(f"{x}:{t * 1000:.1f}ms" for x, t in zip(sizes, times))
    print(
        "ACCEPTANCE crit-9 PASS: "
        f"{counts[0]} rules at every size, affine trend "
        f"t = {a * 1000:.2f}ms + {b * 1e9:.1f}ns*N within 50% ({detail})"
    )
