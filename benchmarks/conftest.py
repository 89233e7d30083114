"""Benchmark-session plumbing: print every recorded experiment table."""

import sys
import os

sys.path.insert(0, os.path.dirname(__file__))

import reporting  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    series = reporting.recorded_series()
    if not series:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("EXPERIMENT SERIES (also in benchmarks/results/)")
    terminalreporter.write_line("=" * 70)
    for title, lines in series:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in lines:
            terminalreporter.write_line(line)
