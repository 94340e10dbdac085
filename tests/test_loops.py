import json

import numpy as np
import pytest

from mnl import loops
from mnl.loops import (CayleyTable, chein_double, cyclic_group, group_catalog,
                       has_unit, is_associative, is_moufang, is_quasigroup,
                       loop_commutator, octonion_unit_loop, symmetric_group_s3)
from mnl.report import InputError


def test_s3_is_quasigroup_and_group():
    s3 = symmetric_group_s3()
    assert is_quasigroup(s3).passed
    assert has_unit(s3).passed
    assert is_associative(s3).passed


def test_quasigroup_repeated_entry_witness():
    t = CayleyTable(3, ((0, 1, 2), (1, 1, 0), (2, 0, 1)))
    rep = is_quasigroup(t)
    assert not rep.passed
    assert rep.witness == ("row", 1)


def test_malformed_table_rejected():
    with pytest.raises(InputError):
        CayleyTable(2, ((0, 3), (1, 0)))


def latin3(**changes):
    """The order-3 cyclic table with the entries at (row, column) changed."""
    rows = [[(g + h) % 3 for h in range(3)] for g in range(3)]
    for at, v in changes.items():
        rows[int(at[1])][int(at[2])] = v
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("entry,message", [
    (True, "table entry True must be an integer"),
    (1.0, "table entry 1.0 must be an integer"),
    (np.int64(1), f"table entry {np.int64(1)!r} must be an integer"),
    (3, "table entry 3 out of range"),
    (-1, "table entry -1 out of range")])
def test_table_names_a_late_bad_entry(entry, message):
    # the entries are checked at once; the message names the bad one
    with pytest.raises(InputError) as exc:
        CayleyTable(3, latin3(e22=entry))
    assert str(exc.value) == message


@pytest.mark.parametrize("changes,message", [
    ({"e10": 5, "e22": True}, "table entry 5 out of range"),
    ({"e10": 2.0, "e22": 7}, "table entry 2.0 must be an integer"),
    ({"e01": False, "e12": -4}, "table entry False must be an integer")])
def test_table_names_the_first_of_two_bad_entries(changes, message):
    with pytest.raises(InputError) as exc:
        CayleyTable(3, latin3(**changes))
    assert str(exc.value) == message
    assert CayleyTable(3, latin3()).array.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_octonion_loop_profile(oct_loop):
    assert oct_loop.order == 16
    assert is_quasigroup(oct_loop).passed
    assert is_moufang(oct_loop).passed
    rep = is_associative(oct_loop)
    assert not rep.passed
    # lowest-index witness: (e1, e2, e4)
    assert rep.witness == (oct_loop.index("e1"), oct_loop.index("e2"), oct_loop.index("e4"))


def test_octonion_loop_products(oct_loop):
    e = oct_loop.index
    assert oct_loop.mul(e("e1"), e("e2")) == e("e3")
    assert oct_loop.mul(e("e1"), e("e1")) == e("-1")


def test_groups_pass_moufang_and_associative():
    for name, g in group_catalog().items():
        assert is_moufang(g).passed, name
        assert is_associative(g).passed, name


def test_associative_implies_moufang_on_builtin_loops(oct_loop):
    tables = list(group_catalog().values()) + [oct_loop, chein_double(symmetric_group_s3())]
    for t in tables:
        if is_associative(t).passed:
            assert is_moufang(t).passed


def test_chein_double_s3():
    cd = chein_double(symmetric_group_s3())
    assert cd.order == 12
    assert is_moufang(cd).passed
    assert not is_associative(cd).passed


@pytest.mark.parametrize("n,assoc", [(2, True), (3, True)])
def test_chein_double_abelian(n, assoc):
    cd = chein_double(cyclic_group(n))
    assert cd.order == 2 * n
    assert is_moufang(cd).passed
    assert is_associative(cd).passed is assoc


def test_chein_double_rejects_non_group():
    with pytest.raises(InputError):
        chein_double(octonion_unit_loop())


def test_chein_double_latin_and_unit():
    for g in (cyclic_group(4), symmetric_group_s3()):
        cd = chein_double(g)
        assert is_quasigroup(cd).passed
        assert has_unit(cd).passed
        for x in range(cd.order):
            xi = cd.right_inverse(x)
            assert xi is not None and cd.mul(xi, x) == 0


def test_loop_commutator_group_identity():
    z5 = cyclic_group(5)
    for g in range(5):
        assert loop_commutator(z5, g, g) == 0


def test_loop_commutator_s3():
    s3 = symmetric_group_s3()
    got = loop_commutator(s3, s3.index("(12)"), s3.index("(13)"))
    assert s3.names[got] == "(132)"


def test_loop_commutator_octonion(oct_loop):
    got = loop_commutator(oct_loop, oct_loop.index("e1"), oct_loop.index("e2"))
    assert oct_loop.names[got] == "-1"


def test_moufang_precondition_error():
    bad = CayleyTable(3, ((0, 1, 2), (1, 1, 0), (2, 0, 1)))
    with pytest.raises(InputError):
        is_moufang(bad)


def test_json_roundtrip(tmp_path, oct_loop):
    blob = json.dumps(oct_loop.to_json_dict())
    back = CayleyTable.from_json_dict(json.loads(blob))
    assert back == oct_loop
