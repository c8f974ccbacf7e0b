"""Every identity finds its engines through ``families`` when its cell runs,
so one fault planted at ``families.<engine>`` reaches every identity that
calls that engine, as it reaches the tables and oracle-diff.

The mutants add 1 to one cell of one engine.  Each q-triangle gets one at
r = 0, 1 and 2, because some identities read only one r: I-BIN-5/6,
I-LAH-CF and I-CQ-SYM catch only the r = 0 mutant, I-BIN-8/9 only the
r = 1 one.  q_binomial is a polyring helper, not an engine, but every
caller in families and identities looks up ``polyring.q_binomial`` when it
runs, so one fault planted there reaches all of them too.  Faults in the
kernel columns have a test of their own.
"""

import pytest

from qcomb import families, identities, polyring
from qcomb.identities import check, identity_names, oracle_diff
from qcomb.oracles import ORACLE_FOR_ENGINE

# identity -> the engines it calls on its default grid
CALLS = {
    "I-PE1": {"stirling2_q"},
    "I-P1E1": {"stirling2_q"},
    "I-P1E2": {"stirling2_q", "bell_q"},
    "I-BIN-5": {"stirling2_q"},
    "I-BIN-6": {"stirling2_q"},
    "I-BIN-7": {"stirling2_q"},
    "I-BIN-8": {"stirling2_q"},
    "I-BIN-9": {"stirling2_q"},
    "I-LAH-CF": {"lah_q"},
    "I-LAH-R": {"lah_q"},
    "I-P2E1": {"lah_q"},
    "I-P2E2": {"lah_q"},
    "I-T3E1": {"stirling1_q"},
    "I-CQ-SUM": {"stirling1_q"},
    "I-CQ-SYM": {"stirling1_q"},
    "I-T4E1": {"stirling2_q"},
    "I-T4E2": {"lah_q"},
    "I-T4E3": {"stirling1_q"},
    "I-T4C1": {"stirling1_q"},
    "I-GENREC": {"hsu_shiue"},
    "I-GENL1": {"hsu_shiue"},
    "I-T5E1": {"hsu_shiue"},
    "I-T5E2": {"hsu_shiue", "gen_bell"},
}

# the identities that call polyring.q_binomial on their default grids
Q_BINOMIAL_CALLERS = {"I-LAH-CF", "I-P2E1", "I-P2E2", "I-QBIN", "I-T3E1",
                      "I-T3E2", "I-T4E2", "I-T4E3", "I-T4C1"}

MUTANTS = ([(family, (3, 2, r)) for family in ("stirling2_q", "lah_q",
                                               "stirling1_q")
            for r in range(3)]
           + [("bell_q", (4, r)) for r in range(3)]
           + [("hsu_shiue", (3, 2)), ("gen_bell", (3,))])


@pytest.fixture
def fresh_caches():
    families.clear_caches()
    yield
    families.clear_caches()


def test_identities_bind_no_engine():
    assert set(families.PARAMS) & set(vars(identities)) == set()
    assert "q_binomial" not in vars(identities)
    assert "q_binomial" not in vars(families)
    held = [value for row in identities._T4_ROWS for value in row
            if callable(value) and getattr(value, "__module__", None)
            in (families.__name__, polyring.__name__)]
    assert held == []


def test_each_identity_calls_the_engines_of_the_map(monkeypatch, fresh_caches):
    runs = []  # (identity, the engines it called)

    def spy(family, real):
        def engine(*args):
            runs[-1][1].add(family)
            return real(*args)
        return engine

    for family in families.FAMILIES:
        monkeypatch.setattr(families, family,
                            spy(family, getattr(families, family)))
    for name in identity_names():
        families.clear_caches()
        runs.append((name, set()))
        check(name)
    assert {name: engines for name, engines in runs if engines} == CALLS


def _mutant(real, at):
    def engine(*args):
        value = real(*args)
        return value + 1 if args == at else value
    return engine


def _fails(name):
    families.clear_caches()
    return check(name).status == "fail"


def test_every_planted_fault_is_caught(monkeypatch, fresh_caches):
    caught, uncaught, unseen_by_oracle = set(), [], []
    for family, at in MUTANTS:
        monkeypatch.setattr(families, family,
                            _mutant(getattr(families, family), at))
        catchers = {name for name, engines in CALLS.items()
                    if family in engines and _fails(name)}
        if family in ORACLE_FOR_ENGINE:
            families.clear_caches()
            r = dict(zip(("n", *families.PARAMS[family]), at)).get("r", 0)
            if not oracle_diff(family, at[0], r):
                unseen_by_oracle.append((family, at))
        monkeypatch.undo()
        caught |= {(name, family) for name in catchers}
        if not catchers:
            uncaught.append((family, at))
    assert uncaught == []
    assert unseen_by_oracle == []
    # every identity catches a fault in each engine it calls
    assert {(name, family) for name, engines in CALLS.items()
            for family in engines} - caught == set()


def test_q_binomial_callers(monkeypatch, fresh_caches):
    callers = set()
    real = polyring.q_binomial

    def spy(n, k):
        callers.add(name)
        return real(n, k)

    monkeypatch.setattr(polyring, "q_binomial", spy)
    for name in identity_names():
        families.clear_caches()
        check(name)
    assert callers == Q_BINOMIAL_CALLERS


def test_q_binomial_fault_is_caught_by_every_caller(monkeypatch,
                                                    fresh_caches):
    monkeypatch.setattr(polyring, "q_binomial",
                        _mutant(polyring.q_binomial, (4, 2)))
    assert {name for name in Q_BINOMIAL_CALLERS if not _fails(name)} == set()
