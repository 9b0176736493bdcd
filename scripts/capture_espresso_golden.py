#!/usr/bin/env python3
"""Captures the Espresso golden covers under tests/data/espresso_golden/.

Each <name>.in.pla is a cover to minimize; <name>.out.pla is what
`ambit_cli <name>.in.pla --out-pla <name>.out.pla` writes for it: the
minimized onset, cube for cube in the minimizer's output order, followed
by the input's don't-care rows. espresso_test's EspressoGoldenTest
minimizes every input and requires the expected cover exactly, so the
pairs pin every decision Espresso makes (variable choice, blocker
slack, merge order, survivor order, the canonical sort), not just the
function and the cube count.

The .in files are derived, never hand-edited:

  * t2, apla, max46: copies of benchmarks/data/;
  * heavy: generate_cover({16, 32, 224, 5}, 11), the cover perfbench
    LOADs (written like perfbench's heavy.pla);
  * sweep_*: a seeded sweep of small generated covers, half of them
    with a generated don't-care set;
  * wide_*: shapes whose input part spans words or whose output part
    straddles a word boundary (inputs x outputs: 30x10, 40x3, 70x3,
    16x48, 33x31).

The generator below is a transcription of util/rng (xoshiro256**,
SplitMix64 seeding) and logic/synth_bench's generate_cover;
EspressoGoldenTest checks that heavy.in.pla still equals the C++
generator's output. Capture with a build of the commit whose covers
the goldens should pin:

  scripts/capture_espresso_golden.py <build>/ambit_cli
"""

import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "data", "espresso_golden")
BENCH_DATA = os.path.join(REPO, "benchmarks", "data")
MASK = (1 << 64) - 1


class Rng:
    """util/rng.h's xoshiro256** with SplitMix64 seed expansion."""

    def __init__(self, seed):
        sm = seed & MASK
        self.s = []
        for _ in range(4):
            sm = (sm + 0x9E3779B97F4A7C15) & MASK
            z = sm
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            self.s.append(z ^ (z >> 31))

    @staticmethod
    def _rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    def next_u64(self):
        s = self.s
        result = (self._rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result

    def next_below(self, bound):
        limit = MASK - (MASK % bound)
        value = self.next_u64()
        while value >= limit:
            value = self.next_u64()
        return value % bound

    def next_bool(self, p=0.5):
        return (self.next_u64() >> 11) * 2.0 ** -53 < p

    def shuffle(self, items):
        for i in range(len(items), 1, -1):
            j = self.next_below(i)
            items[i - 1], items[j] = items[j], items[i - 1]


def cube_words(ni, no, inputs, outputs):
    """The positional-cube words of logic::Cube, LSB first, for the
    canonical sort (Cube::lexicographic_less compares word vectors)."""
    value = 0
    for i, lit in enumerate(inputs):
        value |= {"0": 1, "1": 2, "-": 3}[lit] << (2 * i)
    for j, bit in enumerate(outputs):
        if bit == "1":
            value |= 1 << (2 * ni + j)
    return tuple((value >> (64 * w)) & MASK
                 for w in range((2 * ni + no + 63) // 64))


def generate_cover(ni, no, cubes, literals, seed, extra_output_rate=0.15):
    """logic::generate_cover: rows as (inputs, outputs) strings, sorted
    and deduplicated like Cover::sort_and_dedup."""
    rng = Rng(seed)
    rows = []
    for _ in range(cubes):
        inputs = ["-"] * ni
        variables = list(range(ni))
        rng.shuffle(variables)
        for var in variables[:literals]:
            inputs[var] = "1" if rng.next_bool() else "0"
        outputs = ["0"] * no
        outputs[rng.next_below(no)] = "1"
        for j in range(no):
            if rng.next_bool(extra_output_rate):
                outputs[j] = "1"
        rows.append(("".join(inputs), "".join(outputs)))
    unique = {cube_words(ni, no, i, o): (i, o) for i, o in rows}
    return [unique[key] for key in sorted(unique)]


def pla_text(ni, no, onset, dcset=(), labels=False):
    lines = [".i %d" % ni, ".o %d" % no]
    if labels:
        lines.append(".ilb " + " ".join("in%d" % i for i in range(ni)))
        lines.append(".ob " + " ".join("out%d" % j for j in range(no)))
    lines.append(".type fd")
    lines.append(".p %d" % (len(onset) + len(dcset)))
    lines += ["%s %s" % row for row in onset]
    lines += ["%s %s" % (i, o.replace("1", "-")) for i, o in dcset]
    lines.append(".e")
    return "\n".join(lines) + "\n"


# (name, (inputs, outputs, cubes, literals per cube, seed), don't-care
# spec with the same shape or None).
SWEEP = []
for k in range(20):
    shape = (6 + k % 9, 1 + k % 6, 10 + 3 * k, 2 + k % 4)
    SWEEP.append(("sweep_%02d" % k, shape + (1000 + k,), None))
    dc = (shape[0], shape[1], 3 + k // 2, min(shape[0], shape[3] + 1),
          3000 + k)
    SWEEP.append(("sweep_dc_%02d" % k, shape + (2000 + k,), dc))

# Wide shapes: a generated cover over `active` inputs whose variables
# are spread evenly across the full width, so that the cubes still
# merge while their literals sit in every word of the input part.
# (name, inputs, outputs, active inputs, cubes, literals, seed, dc cubes)
WIDE = [
    ("wide_30x10", 30, 10, 10, 80, 4, 401, 8),
    ("wide_40x3", 40, 3, 10, 40, 4, 402, 0),
    ("wide_70x3", 70, 3, 12, 50, 5, 403, 8),
    ("wide_16x48", 16, 48, 16, 120, 4, 404, 0),
    ("wide_33x31", 33, 31, 11, 120, 4, 405, 10),
]


def spread(rows, width, active):
    positions = [k * (width - 1) // (active - 1) for k in range(active)]
    wide = []
    for inputs, outputs in rows:
        cube = ["-"] * width
        for k, lit in enumerate(inputs):
            cube[positions[k]] = lit
        wide.append(("".join(cube), outputs))
    return wide


def inputs():
    texts = {}
    for name in ("t2", "apla", "max46"):
        with open(os.path.join(BENCH_DATA, name + ".pla")) as f:
            texts[name] = f.read()
    texts["heavy"] = pla_text(16, 32, generate_cover(16, 32, 224, 5, 11),
                              labels=True)
    for name, spec, dc in SWEEP:
        onset = generate_cover(*spec)
        dcset = generate_cover(*dc) if dc else []
        texts[name] = pla_text(spec[0], spec[1], onset, dcset)
    for name, ni, no, active, cubes, literals, seed, dc_cubes in WIDE:
        onset = generate_cover(active, no, cubes, literals, seed)
        dcset = generate_cover(active, no, dc_cubes, literals + 1,
                               seed + 100) if dc_cubes else []
        texts[name] = pla_text(ni, no, spread(onset, ni, active),
                               spread(dcset, ni, active))
    return texts


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: capture_espresso_golden.py <path-to-ambit_cli>")
    cli = os.path.abspath(sys.argv[1])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in sorted(inputs().items()):
            source = os.path.join(tmp, name + ".pla")
            minimized = os.path.join(tmp, name + "_min.pla")
            with open(source, "w") as f:
                f.write(text)
            subprocess.run([cli, source, "--out-pla", minimized], check=True,
                           stdout=subprocess.DEVNULL)
            shutil.copyfile(source,
                            os.path.join(GOLDEN_DIR, name + ".in.pla"))
            shutil.copyfile(minimized,
                            os.path.join(GOLDEN_DIR, name + ".out.pla"))
            with open(minimized) as f:
                rows = sum(1 for line in f if line[:1] not in (".", "\n"))
            print("%-14s -> %4d rows" % (name, rows))


if __name__ == "__main__":
    main()
