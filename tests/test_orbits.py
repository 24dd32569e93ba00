from collections import Counter
from fractions import Fraction

import pytest

from centext import (
    BilinearForm,
    BudgetExceeded,
    ClassAction,
    Field,
    FieldMismatch,
    InvalidDim,
    InvariantError,
    RATIONALS,
    RootSubgroup,
    TableMismatch,
    UnsupportedVariety,
    VARIETY_NAMES,
    annihilator_intersection,
    automorphism_count,
    builtin_variety,
    check_table1,
    classification_table,
    closed_field_representatives,
    coset_representatives,
    delta,
    nabla,
    null_filiform,
    orbits_on_H2,
    orbits_on_T1,
    roots_of_unity_subgroup,
    second_cohomology,
)
from centext.automorphisms import _class_matrix, _lower_triangular
from centext.cli import parse_cocycle_expr
from centext.orbits import _automorphism_matrices, _check_row, _first_columns, resolve_budget

from oracles import (
    burnside_orbit_count,
    class_action_oracle,
    is_automorphism,
    null_filiform_automorphisms,
    null_filiform_table,
    orbit_partition,
)


def test_roots_of_unity_frozen_f13():
    f = Field.prime(13)
    sub = roots_of_unity_subgroup(2, 3, f)
    assert sorted(x.value for x in sub.elements) == [1, 5, 8, 12]
    assert sub.order == 4
    # oracle: brute force over all residues
    roots = [x for x in range(1, 13) if pow(x, 4, 13) == 1]
    want = sorted({pow(x, 3, 13) for x in roots})
    assert sorted(x.value for x in sub.elements) == want
    reps = coset_representatives(sub)
    assert [x.value for x in reps] == [1, 2, 4]
    # the three cosets tile the multiplicative group
    cosets = {
        frozenset((r.value * e.value) % 13 for e in sub.elements) for r in reps
    }
    assert len(cosets) == 3
    assert sorted(x for c in cosets for x in c) == list(range(1, 13))


def test_field_listings_check_the_budget_first(monkeypatch):
    # both scan up to the p - 1 residues of F_p*, so p - 1 is counted first
    monkeypatch.setenv("CENTEXT_BUDGET", "10")
    f11, f13 = Field.prime(11), Field.prime(13)
    assert len(coset_representatives(roots_of_unity_subgroup(1, 2, f11))) == 10
    with pytest.raises(BudgetExceeded, match="^12 nonzero field elements exceed budget 10$"):
        roots_of_unity_subgroup(1, 2, f13)
    trivial = RootSubgroup(i=1, n=2, field=f13, elements=(f13.one,))
    with pytest.raises(BudgetExceeded, match="^12 nonzero field elements exceed budget 10$"):
        coset_representatives(trivial)


def test_roots_of_unity_rational():
    sub = roots_of_unity_subgroup(2, 3, RATIONALS)
    assert sorted(x.value for x in sub.elements) == [-1, 1]
    sub2 = roots_of_unity_subgroup(1, 3, RATIONALS)
    assert [x.value for x in sub2.elements] == [1]
    assert sub.contains(RATIONALS.scalar(-2) / RATIONALS.scalar(2))


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_root_subgroups_and_cosets_match_brute_force(p):
    # every 0 <= i <= n <= 8 with n >= 1: 44 cases per prime, 484 in all
    f = Field.prime(p)
    for n in range(1, 9):
        roots = [x for x in range(1, p) if pow(x, n + 1, p) == 1]
        for i in range(n + 1):
            want = sorted({pow(x, i + 1, p) for x in roots})
            sub = roots_of_unity_subgroup(i, n, f)
            assert [x.value for x in sub.elements] == want, (p, i, n)
            # greedy tiling of F_p*: the smallest residue not yet covered
            # starts the next coset
            reps, covered = [], set()
            for x in range(1, p):
                if x not in covered:
                    reps.append(x)
                    covered.update(x * h % p for h in want)
            assert [x.value for x in coset_representatives(sub)] == reps, (p, i, n)


def test_root_subgroup_errors():
    f5 = Field.prime(5)
    for i, n in ((-1, 2), (0, 0)):
        with pytest.raises(InvalidDim, match=f"^bad parameters i={i}, n={n}$"):
            roots_of_unity_subgroup(i, n, f5)
    with pytest.raises(FieldMismatch, match="^coset enumeration needs a finite field$"):
        coset_representatives(roots_of_unity_subgroup(1, 3, RATIONALS))


def test_enumerate_automorphisms_counts():
    # the matrices ClassAction.matrices walks are the oracle's group, in order
    for n in (2, 3):
        for p in (3, 5):
            group = null_filiform_automorphisms(n, p)
            assert len(group) == automorphism_count(n, Field.prime(p)) == (p - 1) * p ** (n - 1)
            assert len({str(m) for m in group}) == len(group)
            assert all(is_automorphism(null_filiform_table(n), m, p) for m in group)
            assert [[list(row) for row in m] for m in _automorphism_matrices(n, p)] == group


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        orbits_on_T1(3, "lc", Field.prime(5), budget=10)


def test_matrices_check_the_budget_before_building(monkeypatch):
    # the budget counts the whole group, not the distinct matrices
    import centext.orbits as orbits_mod

    action = ClassAction(4, "lc", Field.prime(7), budget=1000)

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(orbits_mod, "_class_matrix", no_matrix)
    monkeypatch.setattr(orbits_mod, "_lower_triangular", no_matrix)
    with pytest.raises(BudgetExceeded, match="^2058 automorphisms exceed budget 1000$"):
        action.matrices


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrices_convolve_each_first_column(monkeypatch, n, p):
    # the automorphism matrices, one built per p columns, are those of
    # the columns one by one, in the same order
    import centext.orbits as orbits_mod

    action = ClassAction(n, "lc", Field.prime(p))
    seen = []
    monkeypatch.setattr(orbits_mod, "_class_matrix", lambda h, m, reps: seen.append(m))
    action.matrices
    assert seen == [_lower_triangular(c, p) for c in _first_columns(n, p)]


@pytest.mark.parametrize("n, p", [(3, 5), (4, 5), (4, 7), (5, 3)])
def test_class_matrix_does_not_depend_on_the_last_entry_of_the_first_column(n, p):
    """The automorphism phi with first column (a_1, ..., a_n) is phi' o psi,
    where phi' has first column (a_1, ..., a_{n-1}, 0) and
    psi: x -> x + (a_n / a_1^n) x^n, so psi(e_1) = e_1 + c e_n and psi
    fixes e_2, ..., e_n.  When no cocycle has an entry (i, j) with
    i + j > n + 1, psi changes a cocycle theta only at (1, 1), by
    c (theta(e_n, e_1) + theta(e_1, e_n)), and E_11 = delta(e_2^*) is a
    coboundary; so phi and phi' act alike on H^2.  The premise is checked
    on each cocycle basis, over every variety that the char gate admits."""
    field, admitted = Field.prime(p), []
    for name in VARIETY_NAMES:
        variety = builtin_variety(name)
        if p in variety.char_exclusions:
            continue
        admitted.append(name)
        h = second_cohomology(null_filiform(n, field), variety)
        assert all(sum(divmod(k, n)) <= n - 1 for z in h.z_basis for k in z._sparse), name
        reps = [rep._sparse for rep in h.h_reps]
        by_head = {}
        for col, m in zip(_first_columns(n, p), _automorphism_matrices(n, p)):
            by_head.setdefault(col[:-1], set()).add(_class_matrix(h, m, reps))
        assert len(by_head) == automorphism_count(n, field) // p
        assert all(len(found) == 1 for found in by_head.values()), name
    assert len(admitted) == (7 if p == 3 else 10)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CENTEXT_BUDGET", "123")
    assert resolve_budget(None) == 123
    assert resolve_budget(9) == 9
    monkeypatch.delenv("CENTEXT_BUDGET")
    assert resolve_budget(None) == 500_000


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_refused(budget):
    with pytest.raises(BudgetExceeded, match="CENTEXT_BUDGET"):
        resolve_budget(budget)
    with pytest.raises(BudgetExceeded, match="at least 1"):
        orbits_on_T1(3, "lc", Field.prime(5), budget=budget)


@pytest.mark.parametrize("value", ["0", "-5", "x", "1.5", ""])
def test_budget_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("CENTEXT_BUDGET", value)
    with pytest.raises(BudgetExceeded, match="CENTEXT_BUDGET"):
        resolve_budget(None)
    with pytest.raises(BudgetExceeded, match="CENTEXT_BUDGET"):
        orbits_on_H2(2, "lc", Field.prime(3))
    assert resolve_budget(9) == 9  # an explicit budget does not read the variable


def test_h2_orbits_bc_n2_f5():
    rep = orbits_on_H2(2, "bicommutative", Field.prime(5))
    assert rep.domain_size == 25
    sizes = sorted(o.size for o in rep.orbits)
    assert sizes == [1, 4, 4, 4, 4, 4, 4]
    zero_orbit = rep.orbits[rep.matched_labels["zero"]]
    assert zero_orbit.size == 1 and zero_orbit.members == ((0, 0),)
    # every orbit carries exactly one tabulated label over this field
    assert sorted(rep.matched_labels.values()) == list(range(7))
    assert all(len(o.labels) == 1 for o in rep.orbits)


def test_t1_orbits_lc_n3_f3_frozen():
    rep = orbits_on_T1(3, "left_commutative", Field.prime(3))
    assert rep.domain_size == 12
    assert len(rep.orbits) == 5
    assert sorted(o.size for o in rep.orbits) == [1, 2, 3, 3, 3]
    want_labels = {
        "delta3_1",
        "nabla3",
        "nabla3+delta3_1",
        "nabla3+2*delta3_1",
        "nabla3+delta2_1",
    }
    assert set(rep.matched_labels) == want_labels
    assert sorted(rep.matched_labels.values()) == list(range(5))
    singleton = rep.orbits[rep.matched_labels["nabla3"]]
    assert singleton.size == 1 and singleton.members == ((1, 0, 0),)


def test_t1_orbits_lc_n2_f3_singletons():
    rep = orbits_on_T1(2, "lc", Field.prime(3))
    assert rep.domain_size == 4
    assert [o.size for o in rep.orbits] == [1, 1, 1, 1]
    assert len(rep.matched_labels) == 4


def test_orbits_closed_under_action():
    action = ClassAction(3, "left_commutative", Field.prime(3))
    rep = orbits_on_T1(3, "left_commutative", Field.prime(3))
    member_orbit = {}
    for k, orbit in enumerate(rep.orbits):
        for m in orbit.members:
            member_orbit[m] = k
    for m, k in member_orbit.items():
        for mat in action.matrices:
            img = action.normalize_line(action.apply(mat, m))
            assert member_orbit[img] == k


def test_line_normalization_stability():
    action = ClassAction(3, "bicommutative", Field.prime(7))
    rep = orbits_on_T1(3, "bicommutative", Field.prime(7))
    p = 7
    for orbit in rep.orbits:
        for m in orbit.members:
            for lam in range(1, p):
                scaled = tuple((lam * c) % p for c in m)
                assert action.normalize_line(scaled) == m


def test_mu_coordinate_is_orbit_invariant():
    # lines with a nonzero leading (antidiagonal) coordinate keep their
    # normalized delta_n_1 coordinate across an orbit
    rep = orbits_on_T1(3, "left_commutative", Field.prime(5))
    for orbit in rep.orbits:
        mus = {m[2] for m in orbit.members if m[0] == 1}
        assert len(mus) <= 1
        leading = {m[0] != 0 for m in orbit.members}
        assert len(leading) == 1  # no mixing of nabla-free lines


def test_orbit_of_class_matches_partition():
    action = ClassAction(2, "bicommutative", Field.prime(3))
    # class points, not lines: [nabla2] scales by phi11^3
    orbit = action.orbit_of_class((1, 0))
    assert orbit == {(1, 0), (2, 0)}
    assert action.same_orbit((1, 0), (2, 0))
    assert not action.same_orbit((1, 0), (0, 1))
    report = orbits_on_H2(2, "bicommutative", Field.prime(3))
    for orbit in report.orbits:
        assert action.orbit_of_class(orbit.members[-1]) == set(orbit.members)


def test_closed_field_representatives_lc_t1_structure():
    reps = closed_field_representatives("left_commutative", 4, RATIONALS, level="T1")
    labels = [r.label for r in reps]
    assert labels == [
        "delta4_1",
        "nabla4",
        "nabla4+delta4_1",
        "nabla4-delta4_1",
        "nabla4+2*delta4_1",
        "nabla4+delta2_1",
        "nabla4+delta3_1",
        "delta2_1",
        "delta3_1",
    ]
    by_label = {r.label: r for r in reps}
    assert by_label["nabla4"].nabla and by_label["nabla4"].mu.is_zero
    assert not by_label["delta2_1"].t1
    assert by_label["delta2_1"].ann_dim == 2
    assert by_label["delta4_1"].t1 and by_label["delta4_1"].ann_dim == 1
    assert by_label["nabla4+delta3_1"].form == nabla(4, 4, RATIONALS) + delta(
        3, 1, 4, RATIONALS
    )


def test_closed_field_representatives_h2_uses_cosets():
    f5 = Field.prime(5)
    reps = closed_field_representatives("left_commutative", 3, f5, level="H2")
    labels = [r.label for r in reps]
    # R(2,3) over F5 is all of F5*, so exactly one mubar coset
    assert labels.count("nabla3+delta2_1") == 1
    assert "zero" in labels
    assert labels.count("nabla3") == 1
    mu_family = [lab for lab in labels if lab.startswith("nabla3+") and "delta3_1" in lab]
    assert len(mu_family) == 4  # mu = 1..4; mu=0 is the bare nabla3


def test_closed_field_representatives_bc():
    reps = closed_field_representatives("bc", 3, Field.prime(7), level="T1")
    labels = [r.label for r in reps]
    assert labels == ["nabla3", "nabla3+delta2_1", "delta2_1"]
    flags = {r.label: r.t1 for r in reps}
    assert flags == {"nabla3": True, "nabla3+delta2_1": True, "delta2_1": False}
    reps2 = closed_field_representatives("bc", 2, RATIONALS, level="T1")
    assert [r.label for r in reps2] == [
        "delta2_1",
        "nabla2",
        "nabla2+delta2_1",
        "nabla2-delta2_1",
        "nabla2+2*delta2_1",
    ]


@pytest.mark.parametrize("level", ["H2", "T1"])
@pytest.mark.parametrize("variety", ["lc", "bc"])
def test_every_tabulated_t1_flag_matches_the_class_action(variety, level):
    # one rule at both levels: a class is in T_1 exactly when its line is
    # (the zero class spans no line and is outside T_1)
    for p in (5, 7):
        field = Field.prime(p)
        for n in (3, 4, 5):
            action = ClassAction(n, variety, field)
            for named in closed_field_representatives(variety, n, field, level=level):
                coords = action.coords_of(named.form)
                want = any(coords) and action.line_in_t1(action.normalize_line(coords))
                assert named.t1 == want, (p, n, named.label)


def test_unsupported_variety_and_bad_dim():
    with pytest.raises(UnsupportedVariety):
        closed_field_representatives("associative", 3, RATIONALS)
    with pytest.raises(InvalidDim):
        closed_field_representatives("lc", 1, RATIONALS)
    with pytest.raises(ValueError):
        closed_field_representatives("lc", 3, RATIONALS, level="T2")


FIELDS = [RATIONALS, Field.prime(5), Field.prime(7)]
MU_SAMPLES = [None, (0, 3, -1, Fraction(-1, 2))]


def _label_expr(label: str) -> str:
    """A tabulated label in the syntax of ``parse_cocycle_expr``."""
    return label.replace("nabla", "nabla_").replace("delta", "delta_")


@pytest.mark.parametrize("sample", MU_SAMPLES, ids=["default-mu", "mu-sample"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec())
def test_every_named_class_is_built_from_its_parameters(field, sample):
    for vname in ("left_commutative", "bicommutative"):
        for level in ("H2", "T1"):
            for n in range(2, 7):
                for c in closed_field_representatives(vname, n, field, level, sample):
                    base = nabla(n, n, field) if c.nabla else BilinearForm.zero(field, n)
                    assert c.form == base + c.mu * delta(c.i, 1, n, field), c.label
                    if c.label == "zero":
                        assert c.form == BilinearForm.zero(field, n) and level == "H2" and not c.t1
                    else:
                        assert parse_cocycle_expr(_label_expr(c.label), n, field) == c.form
                    assert (c.ann_dim is None) == (level == "H2")


def test_repeated_mu_values_give_one_class_each(monkeypatch):
    # values equal in the field count once, in first-seen order
    for field, sample, distinct in (
        (RATIONALS, (1, 1, 2), (1, 2)),
        (Field.prime(3), (1, 4), (1,)),
        (Field.prime(7), (0, 3, -1, Fraction(-1, 2)), (0, 3, -1)),
    ):
        for vname in ("left_commutative", "bicommutative"):
            for level in ("H2", "T1"):
                got = closed_field_representatives(vname, 3, field, level, sample)
                want = closed_field_representatives(vname, 3, field, level, distinct)
                assert [(c.label, c.form) for c in got] == [(c.label, c.form) for c in want]
                assert len({c.label for c in got}) == len(got)
        assert [r.label for r in classification_table(3, field, sample)] == [
            r.label for r in classification_table(3, field, distinct)
        ]
    # the budget counts the sample as given, before any value is built
    monkeypatch.setenv("CENTEXT_BUDGET", "27")  # mu0:3 has 27 structure constants
    with pytest.raises(BudgetExceeded, match="^28 values of the mu family"):
        closed_field_representatives("left_commutative", 3, RATIONALS, "H2", (1,) * 28)


@pytest.mark.parametrize("sample", MU_SAMPLES, ids=["default-mu", "mu-sample"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec())
def test_table_rows_are_the_lc_t1_representatives_in_family_order(field, sample):
    if sample is not None:
        mus = list(dict.fromkeys(field.scalar(m) for m in sample))  # 3 = -1/2 in F_7
    elif field.is_finite:
        mus = [field.scalar(m) for m in range(field.p)]
    else:
        mus = [field.scalar(m) for m in (0, 1, -1, 2)]
    for n in range(2, 7):
        rows = classification_table(n, field, sample)
        got = [(r.label, r.cocycle, r.expected_ann_dim, r.expected_t1) for r in rows]
        reps = closed_field_representatives("left_commutative", n, field, "T1", sample)
        assert Counter(got) == Counter((c.label, c.form, c.ann_dim, c.t1) for c in reps)
        nab, inner = nabla(n, n, field), range(2, n)
        want = [(delta(n, 1, n, field), 1, True)]
        want += [(delta(k, 1, n, field), 2, False) for k in inner]
        want += [(nab + delta(k, 1, n, field), 1, True) for k in inner]
        want += [(nab + mu * delta(n, 1, n, field), 1, True) for mu in mus]
        assert [g[1:] for g in got] == want
        for label, form, _, _ in got:
            assert parse_cocycle_expr(_label_expr(label), n, field) == form
        # nabla_n alone extends mu0:n to mu0:(n+1)
        assert rows[len(rows) - len(mus)].expected == null_filiform(n + 1, field)


def test_classification_table_rows():
    rows = classification_table(4, RATIONALS)
    labels = [r.label for r in rows]
    assert labels == [
        "delta4_1",
        "delta2_1",
        "delta3_1",
        "nabla4+delta2_1",
        "nabla4+delta3_1",
        "nabla4",
        "nabla4+delta4_1",
        "nabla4-delta4_1",
        "nabla4+2*delta4_1",
    ]
    wide = [r for r in rows if r.label in ("delta2_1", "delta3_1")]
    assert all(r.expected_ann_dim == 2 and not r.expected_t1 for r in wide)


def test_check_table1_passes():
    for n in (2, 3, 4):
        results = check_table1(n, RATIONALS)
        assert all(r["ok"] for r in results)
    for p in (5, 7):
        results = check_table1(3, Field.prime(p))
        assert all(r["ok"] for r in results)
        assert len(results) == 1 + 1 + 1 + p  # delta4.. pattern: n=3 rows


def test_mu_minus_one_drops_product():
    f = RATIONALS
    rows = classification_table(3, f)
    row = next(r for r in rows if r.label == "nabla3-delta3_1")
    ext = row.expected
    e3e1 = ext.multiply(ext.basis_vector(3), ext.basis_vector(1))
    assert all(x.is_zero for x in e3e1)  # coefficient 1 + mu vanishes
    row1 = next(r for r in rows if r.label == "nabla3+delta3_1")
    e3e1 = row1.expected.multiply(row1.expected.basis_vector(3), row1.expected.basis_vector(1))
    assert [x.value for x in e3e1] == [0, 0, 0, 2]


def test_table_mismatch_detection():
    f = RATIONALS
    rows = classification_table(3, f)
    row = rows[0]
    # sabotage the expected pattern: claim e1 e1 = 0
    import dataclasses

    z = f.zero
    bad_table = [
        [[z for _ in range(4)] for _ in range(4)] for _ in range(4)
    ]
    bad = dataclasses.replace(row, expected=row.expected.__class__(f, bad_table))
    with pytest.raises(TableMismatch) as err:
        _check_row(bad)
    assert "e_1 e_1" in str(err.value)
    wrong_flag = dataclasses.replace(row, expected_ann_dim=3)
    with pytest.raises(TableMismatch):
        _check_row(wrong_flag)


def test_check_table1_collects_failures(monkeypatch):
    # check_table1 must not raise even when a row fails
    import centext.orbits as orbits_mod

    real = orbits_mod._check_row

    def flaky(row):
        if row.label == "nabla3":
            raise TableMismatch("synthetic failure")
        return real(row)

    monkeypatch.setattr(orbits_mod, "_check_row", flaky)
    results = orbits_mod.check_table1(3, RATIONALS)
    bad = [r for r in results if not r["ok"]]
    assert len(bad) == 1 and bad[0]["label"] == "nabla3"


def test_check_table1_reports_the_failing_row(monkeypatch):
    import centext.orbits as orbits_mod

    real = orbits_mod._check_row

    def flaky(row):
        if row.label == "delta2_1":
            raise TableMismatch(f"row {row.label}: synthetic failure")
        return real(row)

    monkeypatch.setattr(orbits_mod, "_check_row", flaky)
    bad = [r for r in check_table1(3, RATIONALS) if not r["ok"]]
    assert bad == [{"label": "delta2_1", "ok": False, "detail": "row delta2_1: synthetic failure"}]


def test_report_json_shape():
    rep = orbits_on_T1(2, "lc", Field.prime(3))
    data = rep.to_json(include_members=True)
    assert data["kind"] == "T1_lines"
    assert data["orbit_count"] == 4
    assert data["domain_size"] == 4
    assert all("members" in o for o in data["orbits"])
    labeled = [o for o in data["orbits"] if o["labels"]]
    assert len(labeled) == 4
    rep_h2 = orbits_on_H2(2, "associative", Field.prime(3))
    data = rep_h2.to_json()
    # associative has no tabulated list; all orbits are field-extra
    assert all(o.get("note") == "extra (field-dependent)" for o in data["orbits"])


@pytest.mark.parametrize("variety", ["lc", "bc", "associative"])
@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 3)])
def test_line_in_t1_matches_annihilator_intersection(variety, n, p):
    field = Field.prime(p)
    action = ClassAction(n, variety, field)
    base = null_filiform(n, field)
    for line in action.all_lines():
        theta = action.h.rep_from_coords(action.scalars(line))
        expected = annihilator_intersection(base, [theta]).dim == 0
        assert action.line_in_t1(line) == expected, line


def test_domain_leaving_the_action_raises(monkeypatch):
    # lines with a zero delta2_1 coordinate are not an invariant set
    monkeypatch.setattr(ClassAction, "line_in_t1", lambda self, line: line[1] == 0)
    with pytest.raises(InvariantError, match="not closed under the action"):
        orbits_on_T1(3, "lc", Field.prime(3))


@pytest.mark.parametrize("variety", ["lc", "bc", "associative", "novikov"])
@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 3)])
def test_orbits_match_union_find_oracle(variety, n, p):
    field = Field.prime(p)
    action = ClassAction(n, variety, field)
    lines = [ln for ln in action.all_lines() if action.line_in_t1(ln)]
    for report, domain, is_lines in (
        (orbits_on_H2(n, variety, field), action.all_points(), False),
        (orbits_on_T1(n, variety, field), lines, True),
    ):
        want = orbit_partition(domain, action.matrices, p, is_lines)
        got = [list(o.members) for o in report.orbits]
        assert got == want, (report.kind, variety, n, p)
        assert [o.size for o in report.orbits] == [len(g) for g in want]
        assert report.domain_size == len(domain)


# (n, p, variety, levels, whether the oracle's group is checked too: its
# 6 * 7^3 and 6 * 7^4 automorphisms of the F_7 shapes take seconds)
BURNSIDE_CASES = [
    (n, p, variety, ("H2", "T1"), True)
    for variety in ("lc", "bc", "associative", "novikov")
    for n, p in ((2, 3), (3, 5), (4, 3))
] + [(4, 7, "lc", ("H2", "T1"), False), (5, 7, "lc", ("T1",), False)]


@pytest.mark.parametrize(
    "n,p,variety,levels,oracle",
    BURNSIDE_CASES,
    ids=[f"{v}-n{n}-F{p}-{'+'.join(levels)}" for n, p, v, levels, _ in BURNSIDE_CASES],
)
def test_orbit_counts_match_burnside(n, p, variety, levels, oracle):
    # the orbit count is the mean number of fixed points over the group,
    # for the class-action matrices and for the oracle's set alike
    field = Field.prime(p)
    action = ClassAction(n, variety, field)
    reps = [[[x.value for x in row] for row in rep.rows] for rep in action.h.h_reps]
    groups = [action.matrices] + ([class_action_oracle(n, p, reps)] if oracle else [])
    for level in levels:
        lines = level == "T1"
        report = (orbits_on_T1 if lines else orbits_on_H2)(n, variety, field)
        for group in groups:
            assert burnside_orbit_count(group, p, reps if lines else None) == len(report.orbits), level


def test_matrices_that_are_no_group_raise(monkeypatch):
    # {I, 2I} mod 7 is not closed: the images of x and of 2x overlap
    # without being equal
    def not_a_group(self):
        d = self.dim_h
        return [
            tuple(tuple(c if i == j else 0 for j in range(d)) for i in range(d))
            for c in (1, 2)
        ]

    monkeypatch.setattr(ClassAction, "matrices", property(not_a_group))
    with pytest.raises(InvariantError, match="meet an orbit already found"):
        orbits_on_H2(3, "lc", Field.prime(7))
