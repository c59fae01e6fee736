import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosoc import cli, hat
from ontosoc.hat import (
    LOCALITY,
    DecisionEntry,
    DecisionTable,
    DirectedRelation,
    Pole,
    UseCase,
    apply_decisions,
    candidate_relations,
    dedupe_pairs,
    default_decision_table,
    default_triads,
    default_use_cases,
    full_relation_set,
    implication_table,
    map_to_concepts,
    parse_decision_table,
    triad,
)
from ontosoc.schema import ONTOSOC_NS, builtin_schema, schema_from_graph
from ontosoc.turtle import parse_turtle

CORE = (Pole.COMMUNITY, Pole.OBJECT, Pole.SUBJECT)


def format_decision_table(table: DecisionTable) -> str:
    """``table`` in the format `parse_decision_table` reads."""
    lines = ["# pair | verdict | name | direction | justification"]
    for e in table.entries:
        pair_txt = ",".join(sorted(p.value for p in e.pair))
        direction = f"{e.source.value}->{e.target.value}" if e.source else ""
        lines.append(
            f"{pair_txt} | {e.verdict} | {e.name or ''} | {direction} | {e.justification}"
        )
    return "\n".join(lines) + "\n"


def triads_strategy():
    all_triads = sorted(
        ({frozenset(c) for c in itertools.combinations(list(Pole), 3)}),
        key=hat.triad_sort_key,
    )
    return st.sets(st.sampled_from(all_triads), max_size=20)


class TestTriads:
    def test_default_count_is_ten(self):
        assert len(default_triads()) == 10

    def test_contains_rules_object_community(self):
        assert triad(Pole.RULES, Pole.OBJECT, Pole.COMMUNITY) in default_triads()

    def test_contains_tools_triads(self):
        triads = default_triads()
        assert triad(Pole.SUBJECT, Pole.COMMUNITY, Pole.TOOLS) in triads
        assert triad(Pole.TOOLS, Pole.COMMUNITY, Pole.OBJECT) in triads

    def test_triad_needs_three_distinct_poles(self):
        with pytest.raises(ValueError):
            triad(Pole.RULES, Pole.RULES, Pole.OBJECT)
        with pytest.raises(ValueError):
            triad(Pole.RULES, Pole.OBJECT)


class TestImplicationTable:
    def test_three_full_cases_reproduce_expected_counts(self):
        table = implication_table(default_triads(), default_use_cases())
        for counts in table.per_case.values():
            assert counts[Pole.COMMUNITY] == 7
            assert counts[Pole.OBJECT] == 7
            assert counts[Pole.SUBJECT] == 7
            assert counts[Pole.RULES] == 3
            assert counts[Pole.DIVISION_OF_LABOUR] == 3
            assert counts[Pole.TOOLS] == 3

    def test_totals_row(self):
        table = implication_table(default_triads(), default_use_cases())
        assert table.totals == {
            Pole.COMMUNITY: 21,
            Pole.OBJECT: 21,
            Pole.SUBJECT: 21,
            Pole.RULES: 9,
            Pole.DIVISION_OF_LABOUR: 9,
            Pole.TOOLS: 9,
        }

    def test_single_triad_case(self):
        t = triad(Pole.RULES, Pole.OBJECT, Pole.COMMUNITY)
        case = UseCase("only", "", frozenset({t}))
        table = implication_table({t}, [case])
        assert table.per_case["only"] == {
            Pole.COMMUNITY: 1,
            Pole.OBJECT: 1,
            Pole.RULES: 1,
            Pole.SUBJECT: 0,
            Pole.DIVISION_OF_LABOUR: 0,
            Pole.TOOLS: 0,
        }

    def test_unknown_involvement_rejected(self):
        case = UseCase("bad", "", frozenset({triad(*CORE)}))
        with pytest.raises(ValueError):
            implication_table(set(), [case])

    @given(triads_strategy(), st.data())
    def test_row_sum_is_three_times_involvements(self, triads, data):
        if triads:
            involved = data.draw(st.sets(st.sampled_from(sorted(triads, key=hat.triad_sort_key))))
        else:
            involved = set()
        case = UseCase("c", "", frozenset(involved))
        table = implication_table(triads, [case])
        assert sum(table.per_case["c"].values()) == 3 * len(involved)


class TestCandidates:
    def test_rules_object_community_triad_names(self):
        t = triad(Pole.RULES, Pole.OBJECT, Pole.COMMUNITY)
        cands = candidate_relations({t})
        assert {(c.name, c.source, c.target) for c in cands} == {
            ("isRespectedBy", Pole.RULES, Pole.OBJECT),
            ("isOrganisedBy", Pole.OBJECT, Pole.COMMUNITY),
            ("isRegulatedBy", Pole.COMMUNITY, Pole.RULES),
        }

    def test_default_yields_thirty(self):
        assert len(candidate_relations(default_triads())) == 30

    def test_empty_triads_empty_candidates(self):
        assert candidate_relations(set()) == []

    @given(triads_strategy())
    def test_count_is_three_per_triad(self, triads):
        assert len(candidate_relations(triads)) == 3 * len(triads)


class TestDedupe:
    def test_default_reduction_is_sixty_percent(self):
        pairs, stats = dedupe_pairs(candidate_relations(default_triads()))
        assert stats.candidates == 30
        assert stats.pairs == len(pairs) == 12
        assert stats.reduction == pytest.approx(0.60)
        assert "reduction=60%" in stats.summary()

    def test_single_triad_no_reduction(self):
        cands = candidate_relations({triad(*CORE)})
        pairs, stats = dedupe_pairs(cands)
        assert stats.pairs == 3
        assert stats.reduction == 0

    def test_duplicate_listing_collapses(self):
        t = triad(*CORE)
        cands = candidate_relations({t}) * 2
        pairs, stats = dedupe_pairs(cands)
        assert len(pairs) == 3
        assert stats.reduction == 0.5

    @given(triads_strategy(), st.data())
    def test_adding_a_triad_never_decreases_pairs(self, triads, data):
        all_triads = sorted(
            {frozenset(c) for c in itertools.combinations(list(Pole), 3)},
            key=hat.triad_sort_key,
        )
        extra = data.draw(st.sampled_from(all_triads))
        before, _ = dedupe_pairs(candidate_relations(triads))
        after, _ = dedupe_pairs(candidate_relations(triads | {extra}))
        assert before <= after


EXPECTED_POLE_RELATIONS = [
    ("isUsedBy", Pole.TOOLS, Pole.SUBJECT),
    ("isMemberOf", Pole.SUBJECT, Pole.COMMUNITY),
    ("isRegulatedBy", Pole.COMMUNITY, Pole.RULES),
    ("isCreatedBy", Pole.DIVISION_OF_LABOUR, Pole.COMMUNITY),
    ("plays", Pole.SUBJECT, Pole.DIVISION_OF_LABOUR),
    ("isRealisedBy", Pole.DIVISION_OF_LABOUR, Pole.OBJECT),
    ("isOrganisedBy", Pole.OBJECT, Pole.COMMUNITY),
]


class TestDecisions:
    def test_default_table_keeps_the_seven(self):
        pairs, _ = dedupe_pairs(candidate_relations(default_triads()))
        kept = apply_decisions(pairs, default_decision_table())
        assert [(r.name, r.source, r.target) for r in kept] == [
            (n, s.value, t.value) for n, s, t in EXPECTED_POLE_RELATIONS
        ]

    def test_tools_community_pair_dropped(self):
        pairs, _ = dedupe_pairs(candidate_relations(default_triads()))
        kept = apply_decisions(pairs, default_decision_table())
        assert not any(
            {r.source, r.target} == {Pole.TOOLS.value, Pole.COMMUNITY.value} for r in kept
        )

    def test_all_drop_table_empty_result(self):
        pairs, _ = dedupe_pairs(candidate_relations(default_triads()))
        table = DecisionTable(
            [DecisionEntry(pair, "drop", justification="x") for pair in pairs]
        )
        assert apply_decisions(pairs, table) == []

    def test_uncovered_pair_rejected(self):
        pairs, _ = dedupe_pairs(candidate_relations(default_triads()))
        with pytest.raises(ValueError):
            apply_decisions(pairs, DecisionTable([]))

    def test_keep_entry_needs_direction(self):
        with pytest.raises(ValueError):
            DecisionEntry(frozenset((Pole.TOOLS, Pole.SUBJECT)), "keep", name="x")

    def test_a_replaced_entry_is_checked(self):
        entry = DecisionEntry(frozenset((Pole.TOOLS, Pole.SUBJECT)), "drop", justification="x")
        with pytest.raises(ValueError, match="^keep entry for Subject,Tools needs a name and a direction$"):
            entry._replace(verdict="keep")

    def test_table_format_round_trips(self):
        table = default_decision_table()
        again = parse_decision_table(format_decision_table(table))
        assert again.entries == table.entries


class TestFullRelationSet:
    def test_seven_in_ten_out(self):
        pairs, _ = dedupe_pairs(candidate_relations(default_triads()))
        kept = apply_decisions(pairs, default_decision_table())
        full = full_relation_set(kept)
        assert len(full) == 10
        assert [r.name for r in full[-3:]] == ["isLocatedIn", "isOccuredIn", "isBorderdBy"]
        assert DirectedRelation("isBorderdBy", LOCALITY, LOCALITY) in full

    def test_empty_input_warns_but_appends(self, capsys):
        full = full_relation_set([])
        assert len(full) == 3
        assert "warning" in capsys.readouterr().err


class TestMapping:
    def test_tools_to_resource_row(self):
        rel = DirectedRelation("isUsedBy", Pole.TOOLS.value, Pole.SUBJECT.value)
        [prop] = map_to_concepts([rel])
        assert prop.iri == ONTOSOC_NS + "isUsedBy"
        assert prop.domain == ONTOSOC_NS + "Resource"
        assert prop.range == ONTOSOC_NS + "Individual"

    def test_division_of_labour_to_role_row(self):
        rel = DirectedRelation("isRealisedBy", Pole.DIVISION_OF_LABOUR.value, Pole.OBJECT.value)
        [prop] = map_to_concepts([rel])
        assert prop.domain == ONTOSOC_NS + "Role"
        assert prop.range == ONTOSOC_NS + "Activity"


def _derived_schema(path):
    """The schema that ``derive-schema --out`` writes to ``path``, read back."""
    assert cli.run(["derive-schema", "--out", str(path)]) == cli.EXIT_OK
    return schema_from_graph(parse_turtle(path.read_text(encoding="utf-8")).graph)


class TestDeriveSchema:
    def test_matches_builtin_canonical_core(self, tmp_path, capsys):
        derived = _derived_schema(tmp_path / "schema.ttl")
        assert "candidates=30 pairs=12 reduction=60% final=10" in capsys.readouterr().out
        builtin = builtin_schema()
        assert {(p.iri, p.domain, p.range) for p in derived.properties} == {
            (p.iri, p.domain, p.range) for p in builtin.properties
        }
        assert len([c for c in derived.classes if c.superclass is None]) == 7

    def test_deterministic(self, tmp_path):
        assert _derived_schema(tmp_path / "a.ttl") == _derived_schema(tmp_path / "b.ttl")
        assert (tmp_path / "a.ttl").read_bytes() == (tmp_path / "b.ttl").read_bytes()

    def test_pipeline_composition_equals_one_shot(self, tmp_path):
        triads = default_triads()
        table = default_decision_table()
        pairs, _ = dedupe_pairs(candidate_relations(triads))
        composed = map_to_concepts(full_relation_set(apply_decisions(pairs, table)))
        one_shot = _derived_schema(tmp_path / "schema.ttl")
        assert {(p.iri, p.domain, p.range) for p in composed} == {
            (p.iri, p.domain, p.range) for p in one_shot.properties
        }
