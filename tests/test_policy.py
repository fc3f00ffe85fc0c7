"""Access matrix and protection plans.

The core matrix cells are frozen here as an explicit table so any drift in
the shipped default document fails loudly.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portsec.audit import read_column
from portsec.model import CORE_ATTRIBUTES
from portsec.policy import (
    Action,
    Decision,
    MissingEntry,
    NoWriterForAttribute,
    Permission,
    PlanKind,
    PolicyParseError,
    Role,
    SenderCannotRead,
    UnknownEntry,
    default_matrix,
    load_policy,
    protection_plan,
)

# Core access table: rows are roles, columns follow CORE_ATTRIBUTES order
# (B_NO, BL_NO, CNT_C, CNT_W, CSG_DATA, CNT_NO).
CORE_TABLE = {
    Role.IMPORTER: ("R", "R", "RW", "RW", "RW", "R"),
    Role.SHIPPING_LINE: ("RW", "RW", "R", "RW", "R", "RW"),
    Role.PCS: ("R", "R", "-", "R", "-", "R"),
    Role.TERMINAL: ("R", "R", "-", "R", "-", "R"),
    Role.CUSTOMS: ("-", "R", "R", "R", "R", "R"),
    Role.PORT_AUTHORITY: ("-", "-", "-", "-", "-", "R"),
}


@pytest.fixture(scope="module")
def matrix():
    return default_matrix()


def test_every_core_cell(matrix):
    for role, row in CORE_TABLE.items():
        for attr, cell in zip(CORE_ATTRIBUTES, row):
            assert matrix.permission(role, attr) is Permission(cell), (role, attr)


def test_check_semantics(matrix):
    assert matrix.check(Role.PCS, "CNT_C", Action.READ) is False
    assert matrix.check(Role.SHIPPING_LINE, "CNT_W", Action.WRITE) is True
    assert matrix.check(Role.TERMINAL, "B_NO", Action.WRITE) is False
    assert matrix.check(Role.TERMINAL, "B_NO", Action.READ) is True
    assert matrix.check(Role.CUSTOMS, "B_NO", Action.READ) is False
    with pytest.raises(UnknownEntry):
        matrix.check(Role.PCS, "NOT_AN_ATTRIBUTE", Action.READ)


def test_writers_of_oracles(matrix):
    assert matrix.writers_of("CNT_C") == {Role.IMPORTER}
    assert matrix.writers_of("CNT_W") == {Role.IMPORTER, Role.SHIPPING_LINE}
    assert matrix.writers_of("B_NO") == {Role.SHIPPING_LINE}
    assert matrix.writers_of("DG") == {Role.IMPORTER}
    assert matrix.writers_of("ATB_NO") == {Role.CUSTOMS}
    assert matrix.writers_of("CNT_LOC") == {Role.TERMINAL}
    with pytest.raises(UnknownEntry):
        matrix.writers_of("NOPE")


def test_extension_rows(matrix):
    assert matrix.check(Role.PORT_AUTHORITY, "DG", Action.READ)
    assert matrix.check(Role.PORT_AUTHORITY, "CNT_LOC", Action.READ)
    assert matrix.check(Role.PORT_AUTHORITY, "CNT_NO", Action.READ)
    assert not matrix.check(Role.PORT_AUTHORITY, "B_NO", Action.READ)
    assert not matrix.check(Role.PORT_AUTHORITY, "CSG_DATA", Action.READ)
    assert matrix.readers_of("CLR") == {
        Role.CUSTOMS,
        Role.PCS,
        Role.TERMINAL,
        Role.SHIPPING_LINE,
    }


def test_check_writers_consistency(matrix):
    for attr in matrix.attributes:
        for role in Role:
            assert (role in matrix.writers_of(attr)) == matrix.check(
                role, attr, Action.WRITE
            )


@pytest.mark.parametrize("doc", ["default", "extension"])
def test_lookup_tables_agree_with_permission(doc):
    """check, writers_of, readers_of and read_column answer from tables
    built once; each must match the cell ``permission`` returns, for role
    members and role strings alike."""
    matrix = default_matrix() if doc == "default" else load_policy(
        DEFAULT_CORE_ONLY + "PCS NEW_FLAG R\nCUSTOMS NEW_FLAG RW\n"
    )
    for role in Role:
        for attr in matrix.attributes:
            p = matrix.permission(role, attr)
            may = {
                Action.READ: p in (Permission.READ, Permission.READ_WRITE),
                Action.WRITE: p is Permission.READ_WRITE,
            }
            for action, expected in may.items():
                assert matrix.check(role, attr, action) is expected, (role, attr, action)
                assert matrix.check(role.value, attr, action.value) is expected
            assert (role in matrix.writers_of(attr)) is may[Action.WRITE]
            assert (role in matrix.readers_of(attr)) is may[Action.READ]
            assert (attr in read_column(matrix, role)) is may[Action.READ]
            assert (attr in read_column(matrix, role.value)) is may[Action.READ]
        assert read_column(matrix, role) is read_column(matrix, role.value)  # a lookup


def test_lookups_refuse_unknown_entries(matrix):
    for query in (
        lambda: matrix.check("NOBODY", "B_NO", Action.READ),
        lambda: matrix.check(Role.PCS, "NOPE", "READ"),
        lambda: matrix.check(["PCS"], "B_NO", Action.READ),
        lambda: matrix.readers_of("NOPE"),
        lambda: read_column(matrix, "NOBODY"),
    ):
        with pytest.raises(UnknownEntry):
            query()
    with pytest.raises(ValueError):
        matrix.check(Role.PCS, "B_NO", "DELETE")


# --- document parsing -------------------------------------------------------


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PolicyParseError) as e:
        load_policy("# fine\nIMPORTER B_NO MAYBE\n")
    assert e.value.line_no == 2
    with pytest.raises(PolicyParseError):
        load_policy("NOT_A_ROLE B_NO R\n")
    with pytest.raises(PolicyParseError):
        load_policy("IMPORTER B_NO R extra\n")
    with pytest.raises(PolicyParseError):
        load_policy("IMPORTER B_NO W\n")  # write-only never occurs
    with pytest.raises(PolicyParseError):
        load_policy("IMPORTER B_NO R\nIMPORTER B_NO RW\n")


def test_missing_core_row():
    doc = "\n".join(
        f"{role.value} {attr} {perm}"
        for role, row in CORE_TABLE.items()
        if role is not Role.CUSTOMS
        for attr, perm in zip(CORE_ATTRIBUTES, row)
    )
    with pytest.raises(MissingEntry):
        load_policy(doc)


def test_no_writer_rejected():
    lines = []
    for role, row in CORE_TABLE.items():
        for attr, perm in zip(CORE_ATTRIBUTES, row):
            if attr == "CNT_W" and perm == "RW":
                perm = "R"  # strip every writer of CNT_W
            lines.append(f"{role.value} {attr} {perm}")
    with pytest.raises(NoWriterForAttribute):
        load_policy("\n".join(lines))


def test_unlisted_extension_cell_defaults_to_none(matrix):
    doc = DEFAULT_CORE_ONLY + "PCS NEW_FLAG R\nCUSTOMS NEW_FLAG RW\n"
    m = load_policy(doc)
    assert m.permission(Role.IMPORTER, "NEW_FLAG") is Permission.NONE
    assert m.writers_of("NEW_FLAG") == {Role.CUSTOMS}


DEFAULT_CORE_ONLY = (
    "\n".join(
        f"{role.value} {attr} {perm}"
        for role, row in CORE_TABLE.items()
        for attr, perm in zip(CORE_ATTRIBUTES, row)
    )
    + "\n"
)


def test_default_matrix_is_parsed_once_and_read_only(matrix):
    assert default_matrix() is matrix
    with pytest.raises(TypeError):
        matrix.entries[(Role.PCS, "CNT_C")] = Permission.READ_WRITE
    assert load_policy(DEFAULT_CORE_ONLY) is not load_policy(DEFAULT_CORE_ONLY)


def test_comments_and_blanks_ignored():
    doc = "# header\n\n" + DEFAULT_CORE_ONLY.replace(
        "IMPORTER B_NO R", "IMPORTER B_NO R # trailing note"
    )
    m = load_policy(doc)
    assert m.permission(Role.IMPORTER, "B_NO") is Permission.READ


# --- protection plans -------------------------------------------------------


def test_plan_iftmcs_to_pcs(matrix):
    """Shipping line -> PCS with customs downstream: consignment details
    sealed for customs, the rest plain."""
    plan = protection_plan(
        matrix,
        Role.SHIPPING_LINE,
        Role.PCS,
        {Role.CUSTOMS},
        ["B_NO", "BL_NO", "CNT_C", "CNT_W", "CSG_DATA", "CNT_NO"],
    )
    assert plan.decision("B_NO") == Decision(PlanKind.PLAIN)
    assert plan.decision("BL_NO") == Decision(PlanKind.PLAIN)
    assert plan.decision("CNT_W") == Decision(PlanKind.PLAIN)
    assert plan.decision("CNT_NO") == Decision(PlanKind.PLAIN)
    assert plan.decision("CNT_C") == Decision(PlanKind.SEALED, frozenset({Role.CUSTOMS}))
    assert plan.decision("CSG_DATA") == Decision(PlanKind.SEALED, frozenset({Role.CUSTOMS}))
    assert matrix.writers_of("CNT_C") == {Role.IMPORTER}


def test_plan_manifest_to_customs(matrix):
    """PCS -> customs: the booking number drops to its hash."""
    plan = protection_plan(
        matrix, Role.PCS, Role.CUSTOMS, set(), ["B_NO", "BL_NO", "CNT_W", "CNT_NO"]
    )
    assert plan.decision("B_NO") == Decision(PlanKind.HASH_ONLY)
    for attr in ("BL_NO", "CNT_W", "CNT_NO"):
        assert plan.decision(attr) == Decision(PlanKind.PLAIN)


def test_plan_full_read_receiver(matrix):
    plan = protection_plan(
        matrix, Role.SHIPPING_LINE, Role.SHIPPING_LINE, set(), list(CORE_ATTRIBUTES[:4])
    )
    assert all(d == Decision(PlanKind.PLAIN) for _, d in plan.decisions)


def test_plan_sender_cannot_read(matrix):
    with pytest.raises(SenderCannotRead):
        protection_plan(matrix, Role.PCS, Role.CUSTOMS, set(), ["CNT_C"])


_roles = st.sampled_from(list(Role))


@given(
    sender=_roles,
    receiver=_roles,
    downstream=st.frozensets(_roles, max_size=4),
    attrs=st.lists(st.sampled_from(CORE_ATTRIBUTES + ("DG", "CNT_LOC")), min_size=1, max_size=6, unique=True),
)
def test_plan_soundness_and_completeness(sender, receiver, downstream, attrs):
    """Whoever can recover plaintext from the planned representation must
    hold READ; readable attributes never degrade to HASH_ONLY needlessly."""
    matrix = default_matrix()
    try:
        plan = protection_plan(matrix, sender, receiver, downstream, attrs)
    except SenderCannotRead:
        return
    for attr, d in plan.decisions:
        readable = matrix.readers_of(attr)
        if d.kind is PlanKind.PLAIN:
            assert receiver in readable
        elif d.kind is PlanKind.SEALED:
            assert d.readers <= readable
            assert receiver not in d.readers
        else:
            assert receiver not in readable
            assert not any(r in readable and r != receiver for r in downstream)
