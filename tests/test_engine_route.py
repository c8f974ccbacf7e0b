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

import json

import golden
import pytest
from golden import CALLS, MUTANTS, Q_BINOMIAL_AT, Q_BINOMIAL_CALLERS, mutant
from qcomb import families, identities, polyring
from qcomb.identities import check, identity_names, oracle_diff
from qcomb.oracles import ORACLE_FOR_ENGINE

# every report under a planted fault, pinned by tests/golden.py
FAULT_DIGESTS = json.loads(golden.FAULTS_PATH.read_text())


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


def _fails(fault, at, name, digests):
    """Whether check(name) fails; its report's digest goes into digests."""
    report, digest = golden.report_digest(name)
    digests[golden.fault_key(fault, at, name)] = digest
    return report.status == "fail"


def _changed(digests):
    return [key for key, value in digests.items()
            if FAULT_DIGESTS.get(key) != value]


def test_fault_digests_cover_every_planted_fault():
    keys = [golden.fault_key(family, at, name) for family, at in MUTANTS
            for name, engines in CALLS.items() if family in engines]
    keys += [golden.fault_key("q_binomial", Q_BINOMIAL_AT, name)
             for name in sorted(Q_BINOMIAL_CALLERS)]
    assert keys == list(FAULT_DIGESTS)


def test_every_planted_fault_is_caught(monkeypatch, fresh_caches):
    caught, uncaught, unseen_by_oracle, digests = set(), [], [], {}
    for family, at in MUTANTS:
        monkeypatch.setattr(families, family,
                            mutant(getattr(families, family), at))
        catchers = {name for name, engines in CALLS.items()
                    if family in engines and _fails(family, at, name, digests)}
        if family in ORACLE_FOR_ENGINE:
            families.clear_caches()
            r = dict(zip(("n", *families.PARAMS[family]), at)).get("r", 0)
            if not oracle_diff(family, [at[0]], [r]):
                unseen_by_oracle.append((family, at))
        monkeypatch.undo()
        caught |= {(name, family) for name in catchers}
        if not catchers:
            uncaught.append((family, at))
    assert uncaught == []
    assert unseen_by_oracle == []
    assert _changed(digests) == []
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
                        mutant(polyring.q_binomial, Q_BINOMIAL_AT))
    digests = {}
    assert {name for name in Q_BINOMIAL_CALLERS
            if not _fails("q_binomial", Q_BINOMIAL_AT, name, digests)} == set()
    assert _changed(digests) == []
