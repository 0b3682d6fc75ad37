"""The package's record types: construction, immutability, equality, hash and repr.

Seven records are ``typing.NamedTuple`` and seven are slotted classes
written by hand (the ones with caches, hidden fields or a check).  Each row
of ``RECORDS`` pins one type's field names and order, its repr text and
which fields equality and hash leave out, so a rewrite of a record that
changes any of them fails here.
"""

import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import wallnorm
from wallnorm import (
    BoundaryMatrices,
    ClassificationReport,
    Coorientation,
    Curve,
    DualBall,
    DualGraph,
    EulerianSet,
    Face,
    HighestPotential,
    HomologyBasis,
    MalformedInput,
    MultiCurveCertificate,
    RealizationResult,
    SectionClass,
    VerifyReport,
)
from wallnorm.fixtures import grid_basis, grid_map

G11, G12 = grid_map(1, 1), grid_map(1, 2)
B11, B12 = grid_basis(G11, 1, 1), grid_basis(G12, 1, 2)
SECTION = SectionClass((0, 0), "interior", -4, 2, 0)


class Row(NamedTuple):
    cls: type
    fields: tuple[str, ...]  # constructor order
    values: tuple
    alt: tuple  # per field, a second value that differs from the first
    hidden: frozenset  # fields left out of equality and hash
    repr: str


RECORDS = (
    Row(Face, ("darts",), ((0, 5, 2),), ((0, 5),), frozenset(),
        "Face(darts=(0, 5, 2))"),
    Row(Curve, ("darts", "support", "edges"),
        ((0, 2), frozenset({0, 1, 2, 3}), (0, 1)), ((1, 3), frozenset({0, 1}), (1,)), frozenset(),
        "Curve(darts=(0, 2), support=frozenset({0, 1, 2, 3}), edges=(0, 1))"),
    Row(DualGraph, ("node_count", "ends"), (2, ((0, 1), (1, 0))), (3, ((0, 1),)), frozenset(),
        "DualGraph(node_count=2, ends=((0, 1), (1, 0)))"),
    Row(BoundaryMatrices, ("d1", "d2"), (((1, -1),), ((0,), (0,))), (((0, 0),), ((1,), (-1,))),
        frozenset(), "BoundaryMatrices(d1=((1, -1),), d2=((0,), (0,)))"),
    Row(HomologyBasis, ("wmap", "cycles", "cocycles", "label"),
        (G11, B11.cycles, B11.cocycles, "auto"), (G12, B12.cycles, B12.cocycles, "user"),
        frozenset(),
        "HomologyBasis(wmap=WallSystemMap(V=1, E=2, F=1, genus=1), cycles=(((1, 1),), ((0, 1),)),"
        " cocycles=((0, 1), (1, 0)), label='auto')"),
    Row(Coorientation, ("signs",), ((1, -1, 1, -1),), ((-1, 1, -1, 1),), frozenset(),
        "Coorientation(signs=(1, -1, 1, -1))"),
    Row(EulerianSet, ("count", "items", "classes"),
        (2, (Coorientation((1, -1)), Coorientation((-1, 1))), Counter({(1, 0): 1, (-1, 0): 1})),
        (1, (Coorientation((1, -1)),), Counter()), frozenset({"classes"}),
        "EulerianSet(count=2, items=(Coorientation(signs=(1, -1)), Coorientation(signs=(-1, 1))),"
        " classes=Counter({(1, 0): 1, (-1, 0): 1}))"),
    Row(HighestPotential, ("position", "values", "steps", "certificate", "tight", "basis_rank"),
        ("interior", (0, 1), (1, -1), None, ((0, 1, (1, 0)),), 2),
        ("boundary", (0, 2), (-1, 1), ((0, 1),), (), 1), frozenset(),
        "HighestPotential(position='interior', values=(0, 1), steps=(1, -1), certificate=None,"
        " basis_rank=2)"),
    Row(RealizationResult, ("coorientation", "target", "method"),
        (Coorientation((1, -1)), (1, 0), "eikonal"),
        (Coorientation((-1, 1)), (-1, 0), "enumeration-fallback"), frozenset(),
        "RealizationResult(coorientation=Coorientation(signs=(1, -1)), target=(1, 0),"
        " method='eikonal')"),
    Row(DualBall, ("points", "extreme", "dim", "polygon", "g1_area", "wmap", "basis"),
        (((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)), ((-1, 0), (0, -1), (0, 1), (1, 0)), 2,
         ((1, 0), (0, 1), (-1, 0), (0, -1)), Fraction(2), G11, B11),
        (((0, 0),), ((-1, -1), (1, 1)), 1, ((1, 1), (-1, -1)), Fraction(0), G12, B12),
        frozenset({"wmap", "basis"}),
        "DualBall(points=((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)),"
        " extreme=((-1, 0), (0, -1), (0, 1), (1, 0)), dim=2,"
        " polygon=((1, 0), (0, 1), (-1, 0), (0, -1)), g1_area=Fraction(2, 1))"),
    Row(MultiCurveCertificate, ("cycles", "total_length", "total_class"),
        (((((0, 1), (1, 1)), (1, 0), 2),), 2, (1, 0)), ((), 0, (0, 0)), frozenset(),
        "MultiCurveCertificate(cycles=((((0, 1), (1, 1)), (1, 0), 2),), total_length=2,"
        " total_class=(1, 0))"),
    Row(VerifyReport, ("box_radius", "truncation", "checked", "discrepancies"),
        (2, 3, 25, (((1, 0), 1, 2),)), (1, 2, 9, ()), frozenset(),
        "VerifyReport(box_radius=2, truncation=3, checked=25, discrepancies=(((1, 0), 1, 2),))"),
    Row(SectionClass,
        ("point", "status", "euler_characteristic", "boundary_circles", "section_genus"),
        ((0, 0), "interior", -4, 2, 0), ((1, 1), "boundary", -8, 4, 1), frozenset(),
        "SectionClass(point=(0, 0), status='interior', euler_characteristic=-4,"
        " boundary_circles=2, section_genus=0)"),
    Row(ClassificationReport,
        ("map_digest", "basis_label", "parity", "entries", "interior_count", "boundary_count",
         "outside_count"),
        ("0123456789ab", "auto", (0, 0), (SECTION,), 1, 0, 0),
        ("ba9876543210", "user", (1, 1), (), 0, 1, 1), frozenset(),
        "ClassificationReport(map_digest='0123456789ab', basis_label='auto', parity=(0, 0),"
        " entries=(SectionClass(point=(0, 0), status='interior', euler_characteristic=-4,"
        " boundary_circles=2, section_genus=0),), interior_count=1, boundary_count=0,"
        " outside_count=0)"),
)
ROW = {row.cls: row for row in RECORDS}
NAMED_TUPLES = {"Curve", "BoundaryMatrices", "RealizationResult", "MultiCurveCertificate",
                "VerifyReport", "SectionClass", "ClassificationReport"}


@pytest.mark.parametrize("row", RECORDS, ids=lambda row: row.cls.__name__)
def test_record_parity(row):
    rec = row.cls(*row.values)
    assert repr(rec) == row.repr
    assert rec == row.cls(**dict(zip(row.fields, row.values)))
    assert tuple(getattr(rec, name) for name in row.fields) == row.values
    twin = row.cls(*row.values)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    for i, name in enumerate(row.fields):
        mixed = row.cls(*row.values[:i], row.alt[i], *row.values[i + 1:])
        if name in row.hidden:
            assert mixed == rec and hash(mixed) == hash(rec), name
        else:
            assert mixed != rec, name
    for name in (*row.fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == row.repr and rec == twin  # the refused writes changed nothing
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is row.cls and copy == rec and repr(copy) == row.repr
    if row.cls.__name__ in NAMED_TUPLES:
        # new with NamedTuple: a record is the tuple of its fields
        assert issubclass(row.cls, tuple) and row.cls._fields == row.fields
        assert rec == row.values and tuple(rec) == row.values
        first, *rest = rec
        assert (first, *rest) == row.values
    else:
        assert not issubclass(row.cls, tuple) and rec != row.values
        with pytest.raises(TypeError):
            iter(rec)
        assert weakref.ref(rec)() is rec


def test_records_are_the_fourteen_types():
    assert {row.cls.__name__ for row in RECORDS} == NAMED_TUPLES | {
        "Face", "DualGraph", "HomologyBasis", "Coorientation", "EulerianSet",
        "HighestPotential", "DualBall"}
    assert all(getattr(wallnorm, row.cls.__name__) is row.cls for row in RECORDS)


def test_record_defaults():
    assert HomologyBasis(G11, B11.cycles, B11.cocycles).label == "auto"
    outside = HighestPotential("outside")
    assert (outside.values, outside.steps, outside.certificate, outside.tight,
            outside.basis_rank) == (None, None, None, (), 0)
    assert repr(outside) == ("HighestPotential(position='outside', values=None, steps=None,"
                             " certificate=None, basis_rank=0)")
    ball = DualBall((), (), -1)
    assert (ball.polygon, ball.g1_area, ball.wmap, ball.basis, ball.pairs) == (None,) * 4 + ((),)


def test_hidden_state_stays_out_of_equality():
    values = ROW[HomologyBasis].values
    basis, kept = HomologyBasis(*values), HomologyBasis(*values)
    assert basis._memo == {} and basis._memo is not kept._memo
    kept._memo["ball"] = "kept"
    assert basis == kept and hash(basis) == hash(kept) and repr(basis) == repr(kept)
    with pytest.raises(AttributeError):
        kept._memo = {}
    # pairs is set at construction: one (p[0], p[1], p, -p) per pair {p, -p}, p < -p
    ball = DualBall(*ROW[DualBall].values)
    assert ball.pairs == ((-1, 0, (-1, 0), (1, 0)), (0, -1, (0, -1), (0, 1)))
    with pytest.raises(AttributeError):
        ball.pairs = ()
    # the cached properties still compute once and stay
    graph = DualGraph(*ROW[DualGraph].values)
    assert graph.moves is graph.moves
    assert basis.edge_weights is basis.edge_weights == ((0, 1), (1, 0))
    potential = HighestPotential("interior", (0,), (), tight=(), basis_rank=2)
    assert potential.normal_rank == 0 and potential.normal_rank is potential.normal_rank


def test_coorientation_checks_its_signs():
    with pytest.raises(MalformedInput, match=r"signs must be \+1 or -1"):
        Coorientation((1, 0))
    with pytest.raises(MalformedInput):
        Coorientation(signs=(2,))
    # the unchecked path trusts its caller and builds an equal record
    assert Coorientation._unchecked((1, -1)) == Coorientation((1, -1))
    assert type(Coorientation._unchecked((1, -1))) is Coorientation


@pytest.mark.parametrize("module", ["wallnorm", "wallnorm.cli"])
def test_import_does_not_load_dataclasses_or_inspect(module):
    # dataclasses and the inspect chain it imports cost about a third of a cold import
    script = (f"import sys; bare = 'inspect' in sys.modules; import {module}; "
              f"print(bare, 'dataclasses' in sys.modules, 'inspect' in sys.modules)")
    src = str(Path(wallnorm.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    bare, dataclasses, inspect = result.stdout.split()
    assert dataclasses == "False"
    # inspect may only be there if the interpreter loaded it before any program code
    assert inspect == bare
