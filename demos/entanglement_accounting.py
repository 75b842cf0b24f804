#!/usr/bin/env python3
"""Logarithmic negativity before and after the 50:50 splitter.

The pair-correlated input is already entangled between its two modes.
A 50:50 splitter maps a+ b+ onto (i/2)(a+^2 + b+^2), so it turns the
untruncated input into a product of two single-mode squeezed vacua,
which has no mode-mode entanglement.  This script tabulates the
mode-mode logarithmic negativity of both states across squeezing
values, prints the ratio, and cross-checks two analytic anchors:

  * the Bell pair (|0,0> + |1,1>)/sqrt(2) has log-negativity exactly 1;
  * at r = 0.3 a deep truncation reproduces the untruncated closed form
    2 r / ln 2 to a few parts in 1e7.

Run from the repository root:

    python3 demos/entanglement_accounting.py [output-dir]
"""
import math
import os
import sys

from fockvortex import (
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    log_negativity,
    make_tmss,
)

OUT = sys.argv[1] if len(sys.argv) > 1 else "demo-output"
R_VALUES = (0.1, 0.3, 0.5, 0.8, 1.1, 1.5)
N_MAX = 4


def main() -> None:
    os.makedirs(OUT, exist_ok=True)

    bell = TwoModeState.from_pairs(
        {(0, 0): 1.0 / math.sqrt(2.0), (1, 1): 1.0 / math.sqrt(2.0)}, cutoff=2
    )
    print("=== analytic anchors ===")
    print(f"Bell pair log-negativity: {log_negativity(bell).log_negativity:.12f} (exact: 1)")
    deep = make_tmss(SqueezeParams(r=0.3, n_max=12))
    closed = 2.0 * 0.3 / math.log(2.0)
    print(
        f"deep truncation at r=0.3: {log_negativity(deep).log_negativity:.9f}"
        f" vs closed form {closed:.9f}\n"
    )

    print(f"=== before/after the splitter (n_max={N_MAX}) ===\n")
    print(f"{'r':>5} | {'L before':>10} | {'L after':>10} | {'ratio':>8}")
    print("-" * 44)
    rows = ["r,l_before,l_after,ratio"]
    for r in R_VALUES:
        before = make_tmss(SqueezeParams(r=r, n_max=N_MAX))
        after = apply_beam_splitter(before)
        lb = log_negativity(before).log_negativity
        la = log_negativity(after).log_negativity
        ratio = la / lb
        print(f"{r:>5} | {lb:>10.6f} | {la:>10.6f} | {ratio:>8.4f}")
        rows.append(f"{r},{lb!r},{la!r},{ratio!r}")

    csv_path = os.path.join(OUT, "entanglement_accounting.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(
        f"\nTable written to {csv_path}.\n\n"
        "Reading the table: for these pair-correlated inputs the splitter\n"
        "*lowers* the mode-mode logarithmic negativity at every squeezing\n"
        "value.  Without truncation the output would be a product of two\n"
        "single-mode squeezed vacua with log-negativity 0; what remains\n"
        "comes from the truncation at n_max pairs.  The splitter does not\n"
        "trade this entanglement for non-Gaussianity: the negativity\n"
        "volume is unchanged by it (see the negativity_growth demo).  The\n"
        "ratio rises with r but stays below 1 throughout this range."
    )


if __name__ == "__main__":
    main()
