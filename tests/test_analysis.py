from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnn_space.analysis import (_average_ranks, edf, edf_csv, emit_report,
                                 rank_choices, ranking_csv)
from hgnn_space.hgraph import GraphError
from hgnn_space.model import DesignConfig


def rec(dim, choice, score, split_id=0, base=None, status="ok", **overrides):
    cfg = (base or DesignConfig(model_family="Relation", macro_agg="Sum")).to_flat()
    cfg[dim] = choice
    cfg.update(overrides)
    return {"config": cfg, "split_id": split_id, "status": status,
            "best_score": score, "metric": "macro_f1"}


# ---------------------------------------------------------------------------
# rank_choices
# ---------------------------------------------------------------------------

def test_domination_gives_rank_one():
    records = []
    for setup in range(4):
        records.append(rec("has_bn", True, 0.9, split_id=setup))
        records.append(rec("has_bn", False, 0.5, split_id=setup))
    table = rank_choices(records, "has_bn")
    assert table.avg_rank[True] == 1.0
    assert table.avg_rank[False] == 2.0
    assert table.n_setups == 4


def test_opposite_orderings_average_to_1_5():
    records = [
        rec("has_bn", True, 0.9, split_id=0),
        rec("has_bn", False, 0.5, split_id=0),
        rec("has_bn", True, 0.4, split_id=1),
        rec("has_bn", False, 0.8, split_id=1),
    ]
    table = rank_choices(records, "has_bn")
    assert table.avg_rank[True] == 1.5
    assert table.avg_rank[False] == 1.5


def test_tied_scores_share_mean_rank():
    records = [
        rec("connectivity", "STACK", 0.9),
        rec("connectivity", "SKIP-SUM", 0.7),
        rec("connectivity", "SKIP-CAT", 0.7),
    ]
    table = rank_choices(records, "connectivity")
    assert table.avg_rank["STACK"] == 1.0
    assert table.avg_rank["SKIP-SUM"] == 2.5
    assert table.avg_rank["SKIP-CAT"] == 2.5


def average_ranks_loop(scores):
    """Descending mean-of-tied-positions ranks by walking the sorted order."""
    keys = np.array([-np.inf if s is None else s for s in scores], dtype=np.float64)
    order = np.argsort(-keys, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.25, 1.0, np.inf]),
                          st.floats(allow_nan=True)), max_size=12))
def test_average_ranks_match_sorted_walk(scores):
    got = _average_ranks(scores)
    want = average_ranks_loop(scores)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_failed_trials_rank_last():
    records = [
        rec("has_bn", True, None, status="failed"),
        rec("has_bn", False, 0.1),
    ]
    table = rank_choices(records, "has_bn")
    assert table.avg_rank[True] == 2.0
    assert table.avg_rank[False] == 1.0


def test_incomplete_setups_skipped_and_error_when_none():
    records = [rec("has_bn", True, 0.9)]
    with pytest.raises(GraphError, match="single choice"):
        rank_choices(records, "has_bn")
    records += [rec("has_bn", False, 0.3),
                rec("has_bn", True, 0.7, split_id=5)]  # split 5 incomplete
    table = rank_choices(records, "has_bn")
    assert table.n_setups == 1


def test_setups_require_same_split():
    records = [rec("has_bn", True, 0.9, split_id=0),
               rec("has_bn", False, 0.5, split_id=1)]
    with pytest.raises(GraphError, match="no complete setup"):
        rank_choices(records, "has_bn")


def test_rank_sum_conservation_and_monotone_invariance():
    rng = np.random.default_rng(0)
    choices = ["ReLU", "LeakyReLU", "ELU", "Tanh", "PReLU"]
    records = []
    for setup in range(6):
        lr = float(rng.choice([0.1, 0.01]))
        for c in choices:
            records.append(rec("activation", c, float(rng.random()),
                               split_id=setup % 3, lr=lr,
                               seed=setup))
    table = rank_choices(records, "activation")
    k = len(choices)
    for setup_idx in range(table.n_setups):
        total = sum(table.ranks[c][setup_idx] for c in choices)
        assert total == pytest.approx(k * (k + 1) / 2)
    squashed = [dict(r, best_score=np.tanh(10 * r["best_score"])) for r in records]
    table2 = rank_choices(squashed, "activation")
    assert table2.avg_rank == table.avg_rank


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------

def test_edf_strict_inequality_examples():
    curve = edf([0.6, 0.7, 0.9])
    assert curve(0.8) == pytest.approx(2.0 / 3.0)
    assert curve(0.6) == 0.0        # strict <: nothing lies below the minimum
    assert curve(0.95) == 1.0
    assert curve(10.0) == 1.0


def test_edf_single_point_steps_above():
    curve = edf([0.5])
    assert curve(0.5) == 0.0
    assert curve(0.5 + 1e-12) == 1.0


def test_edf_empty_rejected():
    with pytest.raises(GraphError):
        edf([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                max_size=40),
       st.floats(min_value=-150, max_value=150),
       st.floats(min_value=0, max_value=10))
def test_edf_monotone_and_bounded(scores, s, delta):
    curve = edf(scores)
    assert 0.0 <= curve(s) <= 1.0
    assert curve(s) <= curve(s + delta)
    assert curve(min(scores)) == 0.0
    assert curve(max(scores) + 1e-9) == 1.0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_two_choice_table_emits_two_rows(tmp_path):
    records = [rec("has_bn", True, 0.9), rec("has_bn", False, 0.5)]
    table = rank_choices(records, "has_bn")
    csv = ranking_csv(table)
    lines = csv.strip().splitlines()
    assert lines[0] == "choice,avg_rank,n_setups,rank_counts"
    assert len(lines) == 3  # header + one row per choice


def test_edf_csv_breakpoints_strictly_increasing():
    curve = edf([0.3, 0.1, 0.1, 0.7, 0.7, 0.7])
    rows = [line.split(",") for line in edf_csv(curve).strip().splitlines()[1:]]
    scores = [float(r[0]) for r in rows]
    assert scores == sorted(set(scores))
    assert all(b > a for a, b in zip(scores, scores[1:]))
    assert float(rows[-1][1]) == 1.0


def test_emit_report_deterministic(tmp_path):
    records = [rec("has_bn", True, 0.9), rec("has_bn", False, 0.5)]
    table = rank_choices(records, "has_bn")
    curves = {"demo": edf([0.4, 0.5, 0.9])}
    paths1 = emit_report([table], curves, tmp_path / "a")
    paths2 = emit_report([table], curves, tmp_path / "b")
    assert [p.split("/")[-1] for p in paths1] == [p.split("/")[-1] for p in paths2]
    for p1, p2 in zip(paths1, paths2):
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert any(p.endswith(".svg") for p in paths1)


def test_emit_report_needs_input(tmp_path):
    with pytest.raises(GraphError):
        emit_report([], {}, tmp_path)
