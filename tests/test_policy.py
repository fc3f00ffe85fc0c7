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
    DEFAULT_POLICY_TEXT,
    Action,
    Decision,
    MissingEntry,
    NoWriterForAttribute,
    PlanKind,
    PolicyParseError,
    Role,
    SenderCannotRead,
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
            assert matrix.check(role, attr, Action.READ) is (cell != "-"), (role, attr)
            assert matrix.check(role, attr, Action.WRITE) is (cell == "RW"), (role, attr)


def test_check_semantics(matrix):
    assert matrix.check(Role.PCS, "CNT_C", Action.READ) is False
    assert matrix.check(Role.SHIPPING_LINE, "CNT_W", Action.WRITE) is True
    assert matrix.check(Role.TERMINAL, "B_NO", Action.WRITE) is False
    assert matrix.check(Role.TERMINAL, "B_NO", Action.READ) is True
    assert matrix.check(Role.CUSTOMS, "B_NO", Action.READ) is False
    assert matrix.check(Role.PCS, "NOT_AN_ATTRIBUTE", Action.READ) is False


def test_writers_of_oracles(matrix):
    assert matrix.writers_of("CNT_C") == {Role.IMPORTER}
    assert matrix.writers_of("CNT_W") == {Role.IMPORTER, Role.SHIPPING_LINE}
    assert matrix.writers_of("B_NO") == {Role.SHIPPING_LINE}
    assert matrix.writers_of("DG") == {Role.IMPORTER}
    assert matrix.writers_of("ATB_NO") == {Role.CUSTOMS}
    assert matrix.writers_of("CNT_LOC") == {Role.TERMINAL}
    assert matrix.writers_of("NOPE") == frozenset()


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


def _cells(text: str) -> dict[tuple[str, str], str]:
    """(role, attribute) -> R, RW or -, as the document states it."""
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    return {(role, attr): perm for role, attr, perm in (t for t in lines if t)}


@pytest.mark.parametrize("doc", ["default", "extension"])
def test_lookup_tables_agree_with_permission(doc):
    """check, writers_of, readers_of and read_column answer from the two
    role sets built once; each must match the cell the document states
    (an unlisted one is -), for role members and role strings alike."""
    text = DEFAULT_POLICY_TEXT if doc == "default" else (
        DEFAULT_CORE_ONLY + "PCS NEW_FLAG R\nCUSTOMS NEW_FLAG RW\n"
    )
    matrix, cells = load_policy(text), _cells(text)
    for role in Role:
        for attr in matrix.attributes:
            cell = cells.get((role.value, attr), "-")
            may = {Action.READ: cell != "-", Action.WRITE: cell == "RW"}
            for action, expected in may.items():
                assert matrix.check(role, attr, action) is expected, (role, attr, action)
                assert matrix.check(role.value, attr, action.value) is expected
            assert (role in matrix.writers_of(attr)) is may[Action.WRITE]
            assert (role in matrix.readers_of(attr)) is may[Action.READ]
            assert (attr in read_column(matrix, role)) is may[Action.READ]
            assert (attr in read_column(matrix, role.value)) is may[Action.READ]
        assert read_column(matrix, role) is read_column(matrix, role.value)  # a lookup


def test_unknown_names_answer_no_permission(matrix):
    """A role or attribute the policy does not hold is readable and
    writable by nobody: every lookup fails closed and none raises."""
    for role in ("NOBODY", "ORDERER", "", None):
        for action in Action:
            assert matrix.check(role, "B_NO", action) is False, (role, action)
        assert read_column(matrix, role) == frozenset(), role
    for attr in ("NOPE", "", "b_no"):
        for action in ("READ", "WRITE"):
            assert matrix.check(Role.IMPORTER, attr, action) is False, (attr, action)
        assert matrix.readers_of(attr) == matrix.writers_of(attr) == frozenset(), attr
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
    assert Role.IMPORTER not in m.readers_of("NEW_FLAG")
    assert m.readers_of("NEW_FLAG") == {Role.PCS, Role.CUSTOMS}
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
        matrix.writers["CNT_C"] = frozenset(Role)
    with pytest.raises(TypeError):
        matrix.readers["NEW"] = frozenset(Role)
    assert load_policy(DEFAULT_CORE_ONLY) is not load_policy(DEFAULT_CORE_ONLY)


def test_comments_and_blanks_ignored():
    doc = "# header\n\n" + DEFAULT_CORE_ONLY.replace(
        "IMPORTER B_NO R", "IMPORTER B_NO R # trailing note"
    )
    m = load_policy(doc)
    assert m.check(Role.IMPORTER, "B_NO", Action.READ)
    assert not m.check(Role.IMPORTER, "B_NO", Action.WRITE)


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
    assert plan["B_NO"] == Decision(PlanKind.PLAIN)
    assert plan["BL_NO"] == Decision(PlanKind.PLAIN)
    assert plan["CNT_W"] == Decision(PlanKind.PLAIN)
    assert plan["CNT_NO"] == Decision(PlanKind.PLAIN)
    assert plan["CNT_C"] == Decision(PlanKind.SEALED, frozenset({Role.CUSTOMS}))
    assert plan["CSG_DATA"] == Decision(PlanKind.SEALED, frozenset({Role.CUSTOMS}))
    assert matrix.writers_of("CNT_C") == {Role.IMPORTER}


def test_plan_manifest_to_customs(matrix):
    """PCS -> customs: the booking number drops to its hash."""
    plan = protection_plan(
        matrix, Role.PCS, Role.CUSTOMS, set(), ["B_NO", "BL_NO", "CNT_W", "CNT_NO"]
    )
    assert plan["B_NO"] == Decision(PlanKind.HASH_ONLY)
    for attr in ("BL_NO", "CNT_W", "CNT_NO"):
        assert plan[attr] == Decision(PlanKind.PLAIN)


def test_plan_full_read_receiver(matrix):
    plan = protection_plan(
        matrix, Role.SHIPPING_LINE, Role.SHIPPING_LINE, set(), list(CORE_ATTRIBUTES[:4])
    )
    assert all(d == Decision(PlanKind.PLAIN) for d in plan.values())


def test_plan_hashes_an_attribute_the_policy_does_not_hold(matrix):
    """Nobody may read an unknown attribute, so its plaintext goes
    HASH_ONLY whoever sends it; the receiver then finds it has no writer."""
    for sender in Role:
        plan = protection_plan(matrix, sender, Role.CUSTOMS, set(Role), ["ZZZ", "CNT_NO"])
        assert plan == {"ZZZ": Decision(PlanKind.HASH_ONLY), "CNT_NO": Decision(PlanKind.PLAIN)}


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
    for attr, d in plan.items():
        readable = matrix.readers_of(attr)
        if d.kind is PlanKind.PLAIN:
            assert receiver in readable
        elif d.kind is PlanKind.SEALED:
            assert d.readers <= readable
            assert receiver not in d.readers
        else:
            assert receiver not in readable
            assert not any(r in readable and r != receiver for r in downstream)
