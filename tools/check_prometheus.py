#!/usr/bin/env python3
"""Validate a Prometheus text exposition (format 0.0.4).

Usage:
    check_prometheus.py FILE
        Structural validation: every sample line parses, every sample
        belongs to the metric family of the most recent # TYPE line
        (histogram samples may append _bucket/_sum/_count), no family
        is declared twice, and all samples of a family form one
        contiguous block. Counter and histogram samples must be
        non-negative. Comment lines other than # TYPE are ignored, as
        the format specifies.

Exit status 0 on success; 1 with a message on the first violation.
No dependencies beyond the standard library, so CI can run it on a
bare runner.
"""

import re
import sys

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$")
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<kind>counter|gauge|histogram|summary|untyped)$")
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def fail(path, lineno, message):
    sys.exit(f"{path}:{lineno}: {message}")


def family_of(name):
    """The declared family a sample name belongs to."""
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_value(text):
    if text in ("+Inf", "-Inf", "NaN"):
        return float(text.replace("Inf", "inf").replace("NaN", "nan"))
    return float(text)


def check_file(path):
    """Validate one exposition; exit with a message on a violation."""
    samples = {}
    declared = {}       # family -> kind
    closed = set()      # families whose sample block has ended
    current = None      # family of the open sample block

    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                match = TYPE_RE.match(line)
                if not match:
                    fail(path, lineno, f"malformed TYPE line: {line!r}")
                name = match.group("name")
                if name in declared:
                    fail(path, lineno, f"duplicate TYPE for {name}")
                declared[name] = match.group("kind")
                if current is not None:
                    closed.add(current)
                current = name
                continue
            if line.startswith("#"):
                # Format 0.0.4: any other comment line is ignored.
                continue

            match = SAMPLE_RE.match(line)
            if not match:
                fail(path, lineno, f"malformed sample: {line!r}")
            name = match.group("name")
            family = family_of(name)
            if family not in declared:
                # A bare-name sample of a histogram family would have
                # family == name and fall through here too.
                fail(path, lineno, f"sample {name} has no TYPE line")
            if family != current:
                if family in closed:
                    fail(path, lineno,
                         f"samples of {family} are not contiguous")
                fail(path, lineno,
                     f"sample {name} appears under TYPE {current}")
            try:
                value = parse_value(match.group("value"))
            except ValueError:
                fail(path, lineno,
                     f"bad value {match.group('value')!r} for {name}")
            key = (name, match.group("labels") or "")
            if key in samples:
                fail(path, lineno, f"duplicate sample {key}")
            samples[key] = value

    if not samples:
        sys.exit(f"{path}: no samples found")
    # Counters must be finite and non-negative.
    for (name, labels), value in samples.items():
        if declared.get(family_of(name)) in ("counter", "histogram"):
            if not value >= 0:
                sys.exit(f"{path}: counter {name}{labels} = {value}")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    check_file(argv[1])


if __name__ == "__main__":
    main(sys.argv)
