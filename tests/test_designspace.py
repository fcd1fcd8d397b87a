import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hgnn_space.designspace as ds
from hgnn_space.hgraph import build_graph
from hgnn_space.model import DesignConfig

# chi-square critical values at p = 0.001
CHI2_999_DOF1 = 10.827566170662733
CHI2_999_DOF2 = 13.815510557964274
CHI2_999_DOF4 = 18.46682695290317

FULL_CARDINALITY = 41_990_400
CONDENSED_CARDINALITY = 82_944


# ---------------------------------------------------------------------------
# space contents
# ---------------------------------------------------------------------------

def test_full_space_dimension_choices():
    space = ds.full_space()
    assert space.dim("activation").choices == ("ReLU", "LeakyReLU", "ELU",
                                               "Tanh", "PReLU")
    assert space.dim("micro_conv").choices == ("GCNConv", "GATConv", "SageConv",
                                               "GINConv")
    assert space.dim("macro_agg").choices == ("Mean", "Max", "Sum", "Attention")
    assert len(space.dimensions) == 15  # 12 common + 3 unique


def test_condensed_space_restrictions():
    space = ds.condensed_space()
    assert space.dim("optimizer").choices == ("Adam",)
    assert space.dim("epochs").choices == (400,)
    assert space.dim("lr").choices == (0.1, 0.01)
    assert space.dim("pre_layers").choices == (1,)
    assert space.dim("activation").choices == ("ELU", "LeakyReLU", "Tanh")
    full = ds.full_space()
    for name in ("model_family", "micro_conv", "macro_agg"):
        assert space.dim(name).choices == full.dim(name).choices


def test_homogenization_macro_inapplicable():
    cfg = DesignConfig(model_family="Homogenization", micro_conv="GCNConv",
                       macro_agg="Sum")
    errors = ds.validate(cfg)
    assert any("macro_agg" in e for e in errors)


# ---------------------------------------------------------------------------
# cardinality
# ---------------------------------------------------------------------------

def test_cardinalities_exact():
    assert ds.full_space().cardinality() == FULL_CARDINALITY
    assert ds.condensed_space().cardinality() == CONDENSED_CARDINALITY
    assert round(FULL_CARDINALITY / CONDENSED_CARDINALITY) == 506


def test_single_dimension_space():
    space = ds.DesignSpace([ds.Dimension("lr", (0.1, 0.01, 0.001))])
    assert space.cardinality() == 3


def test_cardinality_matches_enumeration_on_condensed():
    space = ds.condensed_space()
    count = sum(1 for _ in space.enumerate())
    assert count == space.cardinality()


def test_cardinality_matches_enumeration_on_reduced_space():
    dims = [d if d.name != "hidden_dim" else ds.Dimension("hidden_dim", (8,))
            for d in ds.full_space().dimensions]
    dims = [d if d.name not in ("mp_layers", "lr", "epochs")
            else ds.Dimension(d.name, d.choices[:1]) for d in dims]
    space = ds.DesignSpace(dims)
    assert space.cardinality() == sum(1 for _ in space.enumerate())


def test_when_rule_on_a_non_family_dimension():
    # lr applies only under SGD: 1 Adam point + 2 SGD points per momentum
    space = ds.DesignSpace([
        ds.Dimension("optimizer", ("Adam", "SGD")),
        ds.Dimension("lr", (0.1, 0.01), when=("optimizer", ("SGD",))),
        ds.Dimension("momentum", (0.0, 0.9)),
    ])
    assert space.branch_names == ("optimizer",)
    points = list(space.enumerate())
    assert space.cardinality() == len(points) == 6
    assert sum(p["lr"] is None for p in points) == 2
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = space.sample_assignment(rng)
        assert (a["lr"] is None) == (a["optimizer"] != "SGD")
    fixed = space.sample_assignment(rng, fixed={"optimizer": "SGD"})
    assert fixed["lr"] in (0.1, 0.01)
    # fixing a conditional dimension keeps only the points where it applies
    # and takes the value: SGD with lr 0.1, uniform over the 2 momenta
    draws = [space.sample_assignment(rng, fixed={"lr": 0.1}) for _ in range(4000)]
    assert all(d["optimizer"] == "SGD" and d["lr"] == 0.1 for d in draws)
    zero = sum(d["momentum"] == 0.0 for d in draws)
    assert (zero - 2000) ** 2 / 1000 < CHI2_999_DOF1
    with pytest.raises(ValueError, match="no configuration takes"):
        space.sample_assignment(rng, fixed={"optimizer": "Adam", "lr": 0.1})
    with pytest.raises(ValueError, match="must come before"):
        ds.DesignSpace([ds.Dimension("lr", (0.1,), when=("optimizer", ("SGD",))),
                        ds.Dimension("optimizer", ("Adam", "SGD"))])


def test_fixed_macro_never_draws_a_family_without_macros():
    space = ds.full_space()
    rng = np.random.default_rng(3)
    draws = [space.sample_assignment(rng, fixed={"macro_agg": "Sum"})
             for _ in range(900)]
    assert all(d["macro_agg"] == "Sum" for d in draws)
    assert {d["model_family"] for d in draws} == {"Relation", "Metapath"}
    relation = sum(d["model_family"] == "Relation" for d in draws)
    assert (relation - 450) ** 2 / 225 < CHI2_999_DOF1  # equal config mass
    with pytest.raises(ValueError, match="no configuration takes"):
        space.sample_assignment(rng, fixed={"model_family": "Homogenization",
                                            "macro_agg": "Sum"})


def test_validate_reads_the_macro_when_rule():
    homog = DesignConfig(model_family="Homogenization", macro_agg=None)
    assert ds.validate(homog) == []
    assert ds.validate(homog.with_values(macro_agg="Sum")) == [
        "macro_agg: must be absent unless model_family is one of "
        "['Relation', 'Metapath']"]
    relation = DesignConfig(model_family="Relation", macro_agg="Sum")
    assert ds.validate(relation) == []
    assert ds.validate(relation.with_values(macro_agg=None)) == [
        "macro_agg: None (NoneType) not in ['Mean', 'Max', 'Sum', 'Attention']"]


def test_validate_compares_type_as_well_as_value():
    for key, value in (("has_bn", 1), ("has_bn", 0), ("has_l2norm", 1.0),
                       ("dropout_p", False), ("dropout_p", 0), ("lr", 1e-2 + 0j),
                       ("mp_layers", True), ("pre_layers", 1.0), ("epochs", 100.0),
                       ("hidden_dim", 64.0), ("activation", b"ReLU")):
        choices = list(ds.full_space().dim(key).choices)
        assert ds.validate(DesignConfig().with_values(**{key: value})) == [
            f"{key}: {value!r} ({type(value).__name__}) not in {choices}"]
    assert ds.validate(DesignConfig().with_values(has_bn=1)) == [
        "has_bn: 1 (int) not in [True, False]"]
    assert ds.validate(DesignConfig().with_values(activation=b"ReLU")) == [
        "activation: b'ReLU' (bytes) not in ['ReLU', 'LeakyReLU', 'ELU', 'Tanh', 'PReLU']"]
    for key, value in (("has_bn", True), ("dropout_p", 0.0), ("mp_layers", 1),
                       ("epochs", 100), ("hidden_dim", 64)):
        assert ds.validate(DesignConfig().with_values(**{key: value})) == []


def test_validate_quotes_seed_task_and_attention_form_with_their_type():
    for key, value, rest in (
            ("seed", True, "is not a non-negative integer"),
            ("seed", "7", "is not a non-negative integer"),
            ("seed", -1, "is not a non-negative integer"),
            ("task", 1, "not in ['node_classification', 'link_prediction']"),
            ("attention_form", "gat", "not in ['GAT', 'SimpleHGN']")):
        assert ds.validate(DesignConfig().with_values(**{key: value})) == [
            f"{key}: {value!r} ({type(value).__name__}) {rest}"]
    assert ds.validate(DesignConfig(seed=True)) == [
        "seed: True (bool) is not a non-negative integer"]


def test_condensed_subset_of_full():
    space = ds.condensed_space()
    for i, assignment in enumerate(space.enumerate()):
        cfg = DesignConfig(**assignment)
        assert ds.validate(cfg) == []
        if i >= 2999:
            break


# ---------------------------------------------------------------------------
# draw tables: same draws and generator state as the per-draw rebuild
# ---------------------------------------------------------------------------

def _reference_sample_assignment(space, rng, fixed=None):
    """The table-free draw: rebuild the branch combinations and their weights,
    then one scalar `rng.integers` per free dimension."""
    fixed = dict(fixed or {})
    for name, value in fixed.items():
        if value not in space.dim(name).choices:
            raise ValueError(f"'{value}' is not a choice of dimension '{name}'")
    combos = [c for c in space._branch_combos()
              if all(c[k] == fixed[k] for k in c if k in fixed)
              and all(space.dim(k).applies(c) for k in fixed)]
    if not combos:
        raise ValueError(f"no configuration takes the fixed values {fixed}")
    weights = np.asarray([space._free_count(c, fixed) for c in combos],
                         dtype=np.float64)
    pick = combos[int(rng.choice(len(combos), p=weights / weights.sum()))]
    out = {}
    for d in space.dimensions:
        if d.name in pick:
            out[d.name] = pick[d.name]
        elif not d.applies(out):
            out[d.name] = None
        elif d.name in fixed:
            out[d.name] = fixed[d.name]
        else:
            out[d.name] = d.choices[int(rng.integers(0, len(d.choices)))]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=60),
       st.integers(0, 2 ** 63 - 1))
def test_the_inverse_cdf_pick_is_the_pick_of_rng_choice(log_weights, seed):
    """`sample_assignment`'s branch pick, one `random()` looked up in the
    table's normalised cumulative sum, picks what `rng.choice` picks given
    the probabilities and leaves the generator in the same state, for
    weights from 1e-12 to 1."""
    weights = 10.0 ** np.array(log_weights)
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = int(cdf.searchsorted(got_rng.random(), side="right"))
        assert got == int(want_rng.choice(len(p), p=p))
    assert got_rng.random() == want_rng.random()


def test_a_draw_table_holds_the_cumulative_probabilities():
    space = ds.condensed_space()
    for fixed in _fixed_cases(space):
        picks, cdf, _ = space._draw_table(dict(fixed or {}))
        weights = np.array([space._free_count(
            {k: v for k, v in pick.items() if k in space.branch_names}, fixed or {})
            for pick in picks], dtype=np.float64)
        want = (weights / weights.sum()).cumsum()
        assert cdf.tobytes() == (want / want[-1]).tobytes()


def _when_rule_space():
    return ds.DesignSpace([
        ds.Dimension("optimizer", ("Adam", "SGD")),
        ds.Dimension("lr", (0.1, 0.01), when=("optimizer", ("SGD",))),
        ds.Dimension("momentum", (0.0, 0.9)),
    ])


def _fixed_cases(space):
    """No fixed value, every stratum's fixed pair (or every branch choice of
    a space without strata) and one fixed non-branch value."""
    cases = [None]
    if space.branch_names == ("model_family",):  # the paper's spaces
        cases += [{"model_family": s.model_family, "micro_conv": s.micro_conv}
                  for s in ds.default_strata(space)]
        cases.append({"activation": space.dim("activation").choices[-1]})
    else:
        cases += [{"optimizer": "Adam"}, {"optimizer": "SGD"}, {"lr": 0.01},
                  {"momentum": 0.9}]
    return cases


@pytest.mark.parametrize("make", [ds.full_space, ds.condensed_space, _when_rule_space],
                         ids=["full", "condensed", "when-rule"])
def test_table_draws_equal_the_reference_draws_and_generator_state(make):
    space = make()
    cases = _fixed_cases(space)
    for seed in range(200):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for fixed in cases:
            got = space.sample_assignment(got_rng, fixed=fixed)
            want = _reference_sample_assignment(space, want_rng, fixed)
            assert got == want and list(got) == list(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_fixed_value_is_returned_as_the_caller_gave_it():
    space = ds.full_space()
    rng = np.random.default_rng(0)
    # a value equal to a choice but of another type is refused, as `validate`
    # would refuse the config it ends up in
    for value, shown in ((1, "1 (int)"), (1.0, "1.0 (float)"), (0, "0 (int)")):
        with pytest.raises(ValueError) as info:
            space.sample_assignment(rng, fixed={"has_bn": value})
        assert str(info.value) == f"{shown} is not a choice of dimension 'has_bn'"
    with pytest.raises(ValueError) as info:
        space.sample_assignment(rng, fixed={"mp_layers": True})
    assert str(info.value) == "True (bool) is not a choice of dimension 'mp_layers'"
    true = space.sample_assignment(rng, fixed={"has_bn": True})
    assert true["has_bn"] is True


# ---------------------------------------------------------------------------
# controlled sampling
# ---------------------------------------------------------------------------

def test_sample_respects_strata_hits():
    space = ds.full_space()
    strata = ds.default_strata(space, hits=2)
    assert len(strata) == 12
    configs = ds.sample_controlled(space, 264, strata, seed=7,
                                   metapaths=(("PP", ("r",)),))
    assert len(configs) == 264
    cells = {}
    for c in configs:
        cells[(c.model_family, c.micro_conv)] = cells.get(
            (c.model_family, c.micro_conv), 0) + 1
    for s in strata:
        assert cells.get((s.model_family, s.micro_conv), 0) >= 2
    for c in configs:
        assert ds.validate(c) == []


def test_sample_empty_and_deterministic():
    space = ds.condensed_space()
    assert ds.sample_controlled(space, 0, (), seed=0) == []
    a = ds.sample_controlled(space, 24, ds.default_strata(space, 1), seed=5)
    b = ds.sample_controlled(space, 24, ds.default_strata(space, 1), seed=5)
    assert a == b
    c = ds.sample_controlled(space, 24, ds.default_strata(space, 1), seed=6)
    assert a != c


def test_sample_infeasible_strata():
    space = ds.full_space()
    with pytest.raises(ValueError, match="strata require"):
        ds.sample_controlled(space, 5, ds.default_strata(space, 2), seed=0)
    with pytest.raises(ValueError, match="must not be negative"):
        ds.sample_controlled(space, 2, ds.default_strata(space, -1), seed=0)


def test_sample_seeds_differ_per_config():
    space = ds.condensed_space()
    configs = ds.sample_controlled(space, 10, (), seed=3)
    assert len({c.seed for c in configs}) == 10


def test_sample_marginals_chi_square():
    """Unconstrained sampling is uniform over valid configs, so the family
    marginal follows the per-family config mass (1:4:4) and every
    unconditional dimension is uniform."""
    space = ds.full_space()
    configs = ds.sample_controlled(space, 10_000, (), seed=11)
    fam_counts = {f: 0 for f in space.dim("model_family").choices}
    act_counts = {a: 0 for a in space.dim("activation").choices}
    for c in configs:
        fam_counts[c.model_family] += 1
        act_counts[c.activation] += 1
    n = len(configs)
    expect_fam = {"Homogenization": n / 9, "Relation": 4 * n / 9,
                  "Metapath": 4 * n / 9}
    stat = sum((fam_counts[f] - expect_fam[f]) ** 2 / expect_fam[f]
               for f in fam_counts)
    assert stat < CHI2_999_DOF2
    stat = sum((act_counts[a] - n / 5) ** 2 / (n / 5) for a in act_counts)
    assert stat < CHI2_999_DOF4
    # macro uniform within the dual families
    dual = [c for c in configs if c.model_family != "Homogenization"]
    macro_counts = {m: 0 for m in space.dim("macro_agg").choices}
    for c in dual:
        macro_counts[c.macro_agg] += 1
    m = len(dual)
    stat = sum((macro_counts[k] - m / 4) ** 2 / (m / 4) for k in macro_counts)
    assert stat < 16.26623619623813  # chi2 ppf(0.999, dof=3)


# ---------------------------------------------------------------------------
# perturbation setups
# ---------------------------------------------------------------------------

def test_perturb_bn_two_configs():
    base = DesignConfig(model_family="Relation", macro_agg="Sum", has_bn=True)
    out = ds.perturb_dimension(base, "has_bn")
    assert [c.has_bn for c in out] == [True, False]
    assert base in out


def test_perturb_activation_five_full_three_condensed():
    base = DesignConfig(model_family="Relation", macro_agg="Sum",
                        activation="Tanh", connectivity="SKIP-SUM",
                        optimizer="Adam", epochs=400)
    assert len(ds.perturb_dimension(base, "activation", ds.full_space())) == 5
    assert len(ds.perturb_dimension(base, "activation", ds.condensed_space())) == 3


def test_perturb_closure_validates():
    base = DesignConfig(model_family="Metapath", macro_agg="Attention",
                        metapaths=(("PP", ("r",)),))
    for c in ds.perturb_dimension(base, "macro_agg"):
        assert ds.validate(c) == []


@pytest.mark.parametrize("family", ["Homogenization", "Relation", "Metapath"])
def test_perturb_refuses_a_dimension_another_one_depends_on(family):
    # every family variant of a config would keep the base's macro_agg, which
    # is invalid for some of them
    base = DesignConfig(model_family=family,
                        macro_agg=None if family == "Homogenization" else "Sum",
                        metapaths=(("PP", ("r",)),) if family == "Metapath" else ())
    for space in (ds.full_space(), ds.condensed_space()):
        with pytest.raises(ValueError, match="^dimension 'model_family' cannot be "
                           "expanded: whether 'macro_agg' applies depends on it$"):
            ds.perturb_dimension(base, "model_family", space)


def test_perturb_inapplicable_dimension():
    base = DesignConfig(model_family="Homogenization", macro_agg=None)
    with pytest.raises(ValueError, match="does not apply"):
        ds.perturb_dimension(base, "macro_agg")
    with pytest.raises(KeyError):
        ds.perturb_dimension(base, "not_a_dim")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_rgcn_point_ok():
    cfg = DesignConfig(model_family="Relation", micro_conv="SageConv",
                       macro_agg="Sum")
    assert ds.validate(cfg) == []


def test_validate_reports_all_violations():
    cfg = DesignConfig(model_family="Metapath", macro_agg="Sum", metapaths=(),
                       lr=0.05, hidden_dim=7)
    errors = ds.validate(cfg)
    assert any("lr" in e for e in errors)
    assert any("hidden_dim" in e for e in errors)
    assert any("metapaths" in e for e in errors)
    assert len(errors) >= 3


def test_validate_metapath_chaining_against_schema():
    g = build_graph([("A", 2, 0), ("P", 2, 0)],
                    [("ap", "A", "P"), ("pa", "P", "A")],
                    {"ap": np.array([[0, 0]]), "pa": np.array([[0, 0]])})
    ok = DesignConfig(model_family="Metapath", macro_agg="Sum",
                      metapaths=(("APA", ("ap", "pa")),))
    assert ds.validate(ok, g) == []
    bad = ok.with_values(metapaths=(("XX", ("ap", "ap")),))
    assert any("does not chain" in e for e in ds.validate(bad, g))
    missing = ok.with_values(metapaths=(("YY", ("nope",)),))
    assert any("unknown" in e for e in ds.validate(missing, g))


def test_validate_rejects_a_metapath_name_declared_twice():
    """Two meta-paths under one name would give their convolutions the same
    parameter names, so Adam would share one moment slot between them."""
    cfg = DesignConfig(model_family="Metapath", macro_agg="Sum",
                       metapaths=(("PAP", ("pa", "ap")), ("PAP", ("ap", "pa")),
                                  ("APA", ("ap", "pa"))))
    assert ds.validate(cfg) == ["metapaths: 'PAP' is declared more than once"]
