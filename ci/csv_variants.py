"""Writes one CSV trace in several forms that must load as the same events.

Usage: python3 ci/csv_variants.py IN.csv OUT_PREFIX

IN.csv is a `stream,object,time_ms` trace with a header line. For each form
below this writes OUT_PREFIX-<form>.csv. The trace loader trims blanks and
'\\r' around lines and fields, skips '#' and blank lines and a header on the
first line, reads a last line without '\\n', and sorts the events, so every
form mines to the same output. The seed is fixed: the files are the same on
every run.
"""

import random
import sys

FORMS = ("crlf", "comments", "noheader", "shuffled", "spaced",
         "nofinalnewline", "all")


def write(path, header, rows, crlf=False, comments=False, spaced=False,
          final_newline=True, rng=None):
    end = "\r\n" if crlf else "\n"
    lines = [header] if header else []
    for row in rows:
        if comments and rng.random() < 0.05:
            lines.append(rng.choice(("# a comment, 1,2,3", "", "   ", "#")))
        if spaced:
            row = rng.choice((" ", "\t", "")) + row.replace(
                ",", rng.choice((" , ", ",\t", ", "))) + rng.choice((" ", "\t"))
        lines.append(row)
    text = end.join(lines) + (end if final_newline else "")
    with open(path, "w", newline="") as f:
        f.write(text)


def main():
    source, prefix = sys.argv[1], sys.argv[2]
    with open(source, newline="") as f:
        header, *rows = f.read().splitlines()
    for form in FORMS:
        rng = random.Random(11)
        form_rows = list(rows)
        if form in ("shuffled", "all"):
            rng.shuffle(form_rows)
        write(f"{prefix}-{form}.csv",
              None if form in ("noheader", "all") else header,
              form_rows,
              crlf=form in ("crlf", "all"),
              comments=form in ("comments", "all"),
              spaced=form in ("spaced", "all"),
              final_newline=form not in ("nofinalnewline", "all"),
              rng=rng)


if __name__ == "__main__":
    main()
