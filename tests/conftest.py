import sys
import tracemalloc

import pytest

from factorbench import build_factorisation_tables, build_sieve


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the acceptance-gate lines outside the capture machinery
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
    api = sys.modules.get("test_api") or sys.modules.get("tests.test_api")
    if api:  # the size of src/factorbench, as test_api.code_lines counts it
        terminalreporter.write_line(f"src/factorbench code lines: {api.code_lines()}")


@pytest.fixture(scope="session")
def sieve_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def sieve_big():
    # covers every exhaustive check up to 10^6
    return build_sieve(1_000_000)


@pytest.fixture(scope="session")
def ftables_small():
    # oracle-scale checks against brute force and the divisor sweeps
    return build_factorisation_tables(3000)


@pytest.fixture(scope="session")
def ftables_parity():
    # tables to 10^5 for the parity identity, built without a sieve argument
    return build_factorisation_tables(100_000)


@pytest.fixture(scope="session")
def ftables_big(sieve_big):
    # every table to 10^6, from the shared sieve
    return build_factorisation_tables(1_000_000, sieve_big)


@pytest.fixture(scope="session")
def chunk_tables():
    # past 2^21: across many of the 2^16 chunks (_COUNT_CHUNK) that bound the
    # sieve's walks and the fill of the f list; the signature census is
    # checked here against one bincount of the per-n ids
    tables = build_sieve(2**21 + 5)
    return tables, build_factorisation_tables(2**21 + 5, tables)


@pytest.fixture
def peak_over_retained_mib():
    def peak(build):
        """tracemalloc's peak while build() runs, less what its result keeps."""
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            kept = build()  # held until the memory is read
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - retained) / 2**20
    return peak
