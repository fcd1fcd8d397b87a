"""Design-space definition, exact cardinality, condensed space, config
validation, stratified controlled random search and perturbation setups.

The space is a Cartesian product of dimension choices, except that a
dimension may apply only when an earlier dimension takes one of some values
(`Dimension.when`); an inapplicable dimension is None. The paper's spaces have
one such rule: macro-level aggregation applies only to the dual-aggregation
families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DesignConfig, FAMILIES
from . import layers as L


def _quote(value) -> str:
    """A value as a message shows it: `1 (int)`, so that it cannot be read as
    the string '1' or as the choice True it equals."""
    return f"{value!r} ({type(value).__name__})"


@dataclass(frozen=True)
class Dimension:
    name: str
    choices: tuple
    when: tuple | None = None  # (earlier dimension, values it applies under)

    def __post_init__(self):
        object.__setattr__(self, "_typed", tuple((type(c), c) for c in self.choices))

    def applies(self, partial: dict) -> bool:
        return self.when is None or partial.get(self.when[0]) in self.when[1]

    def admits(self, value) -> bool:
        """Whether `value` is a choice of the same type: 1 is not True, 100.0
        is not 100, and a bool never stands in for a number."""
        return (type(value), value) in self._typed


@dataclass(frozen=True)
class Stratum:
    """A (model family, micro conv) cell with a required hit count."""

    model_family: str
    micro_conv: str
    hits: int = 2


class DesignSpace:
    def __init__(self, dimensions):
        self.dimensions = tuple(dimensions)
        self._by_name = {d.name: d for d in self.dimensions}
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError("dimension names must be unique")
        for i, d in enumerate(self.dimensions):
            if d.when is not None and d.when[0] not in names[:i]:
                raise ValueError(f"dimension '{d.name}' depends on "
                                 f"'{d.when[0]}', which must come before it")
        self.branch_names = tuple(
            sorted({d.when[0] for d in self.dimensions if d.when is not None}))
        self._tables = {}  # draw tables of sample_assignment, per fixed key

    def dim(self, name: str) -> Dimension:
        d = self._by_name.get(name)
        if d is None:
            raise KeyError(f"unknown design dimension '{name}'")
        return d

    def cardinality(self) -> int:
        return sum(self._free_count(combo) for combo in self._branch_combos())

    def enumerate(self):
        """Yield every valid assignment as a dict (inapplicable dims -> None)."""

        def rec(i, partial):
            if i == len(self.dimensions):
                yield dict(partial)
                return
            d = self.dimensions[i]
            if not d.applies(partial):
                partial[d.name] = None
                yield from rec(i + 1, partial)
                del partial[d.name]
                return
            for c in d.choices:
                partial[d.name] = c
                yield from rec(i + 1, partial)
                del partial[d.name]

        yield from rec(0, {})

    def _free_count(self, combo, fixed=()):
        """Configurations under one branch combination: the product of the
        choice counts of the applicable dimensions that neither `combo` nor
        `fixed` sets."""
        prod = 1
        for d in self.dimensions:
            if d.name not in combo and d.name not in fixed and d.applies(combo):
                prod *= len(d.choices)
        return prod

    def _branch_combos(self):
        combos = [{}]
        for name in self.branch_names:
            d = self.dim(name)
            combos = [dict(c, **{name: choice}) for c in combos for choice in d.choices]
        return combos

    def sample_assignment(self, rng, fixed=None) -> dict:
        """One assignment, uniform over the valid configurations (optionally
        restricted to those that take the values in `fixed`; a fixed
        dimension must apply).

        A draw picks a branch combination, weighted by its configuration
        count, with one `rng.random()` looked up in the cumulative weights
        (the recipe, and so the picks and the generator's state, of
        `rng.choice(len(picks), p=p)`), then takes one `rng.integers` over
        the choice counts of that combination's free dimensions, in
        dimension order. A fixed value must be a choice of the same type
        (`Dimension.admits`): `{"has_bn": 1}` is a ValueError, as it is for
        `validate`."""
        fixed = dict(fixed or {})
        for name, value in fixed.items():
            if not self.dim(name).admits(value):
                raise ValueError(f"{_quote(value)} is not a choice of dimension '{name}'")
        picks, cdf, free = self._draw_table(fixed)
        i = int(cdf.searchsorted(rng.random(), side="right"))
        out = dict(picks[i])
        for name in fixed:
            if name not in self.branch_names:
                out[name] = fixed[name]
        names, choices, highs = free[i]
        for name, c, k in zip(names, choices, rng.integers(0, highs)):
            out[name] = c[k]
        return out

    def _draw_table(self, fixed):
        """The branch combinations that agree with `fixed`, the cumulative sum
        of their probability vector scaled to end at 1 and, per combination,
        its free dimensions (names, choices and choice counts). Built once
        per fixed dimension set and fixed branch choice; the table holds
        choices of this space only, never a value from `fixed`, so a
        caller's value is always returned as given."""
        key = (frozenset(fixed), tuple(self.dim(k).choices.index(fixed[k])
                                       for k in self.branch_names if k in fixed))
        table = self._tables.get(key)
        if table is not None:
            return table
        combos = [c for c in self._branch_combos()
                  if all(c[k] == fixed[k] for k in c if k in fixed)
                  and all(self.dim(k).applies(c) for k in fixed)]
        if not combos:
            raise ValueError(f"no configuration takes the fixed values {fixed}")
        weights = np.asarray([self._free_count(c, fixed) for c in combos],
                             dtype=np.float64)
        picks, free = [], []
        for combo in combos:
            # every dimension in order: branch choices set, the rest None
            # until a draw or the caller's fixed value fills them
            pick = {d.name: combo.get(d.name) for d in self.dimensions}
            dims = [d for d in self.dimensions if d.name not in combo
                    and d.name not in fixed and d.applies(combo)]
            picks.append(pick)
            free.append(([d.name for d in dims], [d.choices for d in dims],
                         np.array([len(d.choices) for d in dims], dtype=np.int64)))
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        table = self._tables[key] = (picks, cdf, free)
        return table


_UNIQUE_DIMS = (
    Dimension("model_family", FAMILIES),
    Dimension("micro_conv", L.MICRO_KINDS),
    Dimension("macro_agg", L.MACRO_KINDS,
              when=("model_family", ("Relation", "Metapath"))),
)

_COMMON_FULL = (
    Dimension("has_bn", (True, False)),
    Dimension("dropout_p", (0.0, 0.3, 0.6)),
    Dimension("activation", ("ReLU", "LeakyReLU", "ELU", "Tanh", "PReLU")),
    Dimension("has_l2norm", (True, False)),
    Dimension("connectivity", ("STACK", "SKIP-SUM", "SKIP-CAT")),
    Dimension("pre_layers", (1, 2, 3)),
    Dimension("mp_layers", (1, 2, 3, 4, 5, 6)),
    Dimension("post_layers", (1, 2, 3)),
    Dimension("optimizer", ("Adam", "SGD")),
    Dimension("lr", (0.1, 0.01, 0.001, 0.0001)),
    Dimension("epochs", (100, 200, 400)),
    Dimension("hidden_dim", (8, 16, 32, 64, 128)),
)

_COMMON_CONDENSED = (
    Dimension("has_bn", (True, False)),
    Dimension("dropout_p", (0.0, 0.3)),
    Dimension("activation", ("ELU", "LeakyReLU", "Tanh")),
    Dimension("has_l2norm", (True, False)),
    Dimension("connectivity", ("SKIP-SUM", "SKIP-CAT")),
    Dimension("pre_layers", (1,)),
    Dimension("mp_layers", (1, 2, 3, 4, 5, 6)),
    Dimension("post_layers", (1, 2)),
    Dimension("optimizer", ("Adam",)),
    Dimension("lr", (0.1, 0.01)),
    Dimension("epochs", (400,)),
    Dimension("hidden_dim", (64, 128)),
)


def full_space() -> DesignSpace:
    return DesignSpace(_UNIQUE_DIMS + _COMMON_FULL)


def condensed_space() -> DesignSpace:
    """Common dimensions restricted to the strong choices; the family, micro
    and macro dimensions keep all of their options."""
    return DesignSpace(_UNIQUE_DIMS + _COMMON_CONDENSED)


def describe(space: DesignSpace) -> str:
    lines = []
    for d in space.dimensions:
        cond = ("" if d.when is None else
                f" (only when {d.when[0]} is {' or '.join(map(str, d.when[1]))})")
        lines.append(f"{d.name}: {', '.join(str(c) for c in d.choices)}{cond}")
    lines.append(f"cardinality: {space.cardinality()}")
    return "\n".join(lines)


def default_strata(space: DesignSpace, hits: int = 2):
    """Every (model family, micro conv) cell with the same hit count."""
    out = []
    for fam in space.dim("model_family").choices:
        for micro in space.dim("micro_conv").choices:
            out.append(Stratum(fam, micro, hits))
    return out


def sample_controlled(space: DesignSpace, n: int, strata=(), seed: int = 0,
                      metapaths=()):
    """Deterministic controlled random search sample.

    Stratum cells are filled first (uniform within each cell), the remainder
    uniform over the whole space. Each config gets its own derived seed so
    any single trial reproduces in isolation. `metapaths` (the experiment's
    declared meta-paths) is stamped into Metapath-family samples.
    """
    strata = tuple(strata)
    if any(s.hits < 0 for s in strata):
        raise ValueError("stratum hit counts must not be negative")
    required = sum(s.hits for s in strata)
    if required > n:
        raise ValueError(f"strata require {required} samples but n={n}")
    rng = np.random.default_rng([int(seed), 101])
    assignments = []
    for s in strata:
        for _ in range(s.hits):
            assignments.append(space.sample_assignment(
                rng, fixed={"model_family": s.model_family,
                            "micro_conv": s.micro_conv}))
    for _ in range(n - required):
        assignments.append(space.sample_assignment(rng))
    configs = []
    for i, a in enumerate(assignments):
        cfg_seed = int(np.random.SeedSequence([int(seed), i]).generate_state(1)[0])
        extra = {}
        if a.get("model_family") == "Metapath":
            extra["metapaths"] = tuple(metapaths)
        configs.append(DesignConfig(seed=cfg_seed, **a, **extra))
    return configs


def perturb_dimension(base: DesignConfig, dim_name: str,
                      space: DesignSpace | None = None):
    """All single-dimension variants of a base config (base value included);
    one ranking setup."""
    space = space or full_space()
    d = space.dim(dim_name)
    dependents = [e.name for e in space.dimensions if e.when and e.when[0] == dim_name]
    if dependents:
        raise ValueError(f"dimension '{dim_name}' cannot be expanded: whether "
                         f"{', '.join(map(repr, dependents))} applies depends on it")
    if not d.applies(base.to_flat()):
        raise ValueError(f"dimension '{dim_name}' does not apply to a "
                         f"{base.model_family}-family config")
    return [base.with_values(**{dim_name: c}) for c in d.choices]


_TASKS = ("node_classification", "link_prediction")


_FULL_SPACE = None


def _full_space_cached() -> DesignSpace:
    global _FULL_SPACE
    if _FULL_SPACE is None:
        _FULL_SPACE = full_space()
    return _FULL_SPACE


def validate(cfg: DesignConfig, graph=None) -> list:
    """All violations of the full-space domains and conditional rules."""
    errors = []
    dims = _full_space_cached().dimensions
    values = {d.name: getattr(cfg, d.name) for d in dims}
    for d in dims:
        value = values[d.name]
        if not d.applies(values):
            if value is not None:
                errors.append(f"{d.name}: must be absent unless {d.when[0]} is "
                              f"one of {list(d.when[1])}")
        elif not d.admits(value):
            errors.append(f"{d.name}: {_quote(value)} not in {list(d.choices)}")
    if cfg.attention_form not in L.ATTENTION_FORMS:
        errors.append(f"attention_form: {_quote(cfg.attention_form)} not in "
                      f"{list(L.ATTENTION_FORMS)}")
    if cfg.task not in _TASKS:
        errors.append(f"task: {_quote(cfg.task)} not in {list(_TASKS)}")
    if (isinstance(cfg.seed, bool) or not isinstance(cfg.seed, (int, np.integer))
            or cfg.seed < 0):
        errors.append(f"seed: {_quote(cfg.seed)} is not a non-negative integer")

    if cfg.model_family == "Metapath":
        if not cfg.metapaths:
            errors.append("metapaths: Metapath family needs a non-empty meta-path list")
        errors += metapath_problems(cfg.metapaths, graph)
    return errors


def metapath_problems(metapaths, graph=None) -> list:
    """Meta-path names declared twice and, given the graph, chains that name
    unknown relations or do not connect."""
    errors = []
    names = [name for name, _ in metapaths]
    for name in sorted({n for n in names if names.count(n) > 1}):
        errors.append(f"metapaths: '{name}' is declared more than once")
    if graph is None:
        return errors
    rel_by_name = {r.name: r for r in graph.relations}
    for name, rels in metapaths:
        missing = [r for r in rels if r not in rel_by_name]
        if missing:
            errors.append(f"metapaths: '{name}' references unknown relations {missing}")
            continue
        for a, b in zip(rels, rels[1:]):
            if rel_by_name[a].dst_type != rel_by_name[b].src_type:
                errors.append(f"metapaths: '{name}' does not chain at '{a}' -> '{b}'")
                break
    return errors
