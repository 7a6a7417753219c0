#!/usr/bin/env python3
"""Attribute the samples `sigprof.rs` wrote to functions and repo lines.

    python3 tools/profile/tally.py <binary> <samples> [--repo DIR] [--top N]
                                   [--share REGEX ...]

Every address inside the binary is resolved by one
`addr2line -a -f -C -i` call (return addresses minus 1, so a call
resolves to its own line). Three tallies, each a share of all samples:

* leaf: the innermost function at the interrupted `rip`, or the file
  it lies in when that is not the binary, with its caller read from the
  word at `rsp` (`[libc.so.6] from <Bytes as PartialEq>::eq`: libc's
  `memcmp`, `memcpy` and friends keep no frame pointer);
* inclusive: every function anywhere on the stack, every inline level
  counted, once per sample (the runtime's frames above `main` left out);
* repo line: the innermost frame whose file lies under `--repo`.

`--share REGEX` prints the share of samples with a matching function
anywhere on the stack (e.g. `--share crc32c --share 'libc'`); `A&&B`
asks for both on one stack (`--share 'LustreFile::write_at&&commit_crc'`).
"""

import argparse
import collections
import re
import subprocess


def load(path):
    exe, maps, samples = None, [], []
    with open(path) as f:
        for line in f:
            w = line.split()
            if w and w[0] == "exe":
                exe = w[1]
            elif w and w[0] == "map":
                maps.append((int(w[1], 16), int(w[2], 16), int(w[3], 16), w[4], w[5]))
            elif w:
                samples.append([int(a, 16) for a in w])
    return exe, maps, samples


# frames on every stack (the runtime's entry into `main`): not tallied
# as inclusive functions
RUNTIME = re.compile(r"std::|<&dyn core::ops::function|core::ops::function::|main$")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--repo", default=".")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--share", action="append", default=[])
    args = ap.parse_args()

    exe, maps, samples = load(args.samples)
    base = min(lo for lo, _, off, _, path in maps if off == 0 and path == exe)
    text = [(lo, hi, path) for lo, hi, _, perms, path in maps if "x" in perms]

    def rel(addr, is_return):
        if not any(lo <= addr < hi and path == exe for lo, hi, path in text):
            return None
        return addr - base - (1 if is_return else 0)

    def outside(addr):
        """`[<object>]` for an address in another mapped file (libc)."""
        obj = next((p for lo, hi, p in text if lo <= addr < hi), "?")
        return f"[{obj.rsplit('/', 1)[-1]}]"

    # per sample: the leaf, then the caller of a frameless leaf outside
    # the binary, then the rbp chain
    stacks = []
    for s in samples:
        rip, at_rsp, chain = s[0], s[1], s[2:]
        leaf = rel(rip, False)
        frames = [leaf]
        if leaf is None and at_rsp:
            frames.append(rel(at_rsp, True))
        frames += [rel(a, True) for a in chain]
        stacks.append(frames)

    addrs = sorted({a for st in stacks for a in st if a is not None})
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", args.binary],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    # `-a` prints the address, then (function, file:line) per inline
    # level, innermost first
    frames_of, cur = {}, None
    i = 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = int(line, 16)
            frames_of[cur] = []
            i += 1
        else:
            frames_of[cur].append((line, out[i + 1]))
            i += 2

    repo = args.repo.rstrip("/") + "/"
    n = len(stacks)
    leaf, incl, repo_line = (collections.Counter() for _ in range(3))
    share = collections.Counter()
    for s, st in zip(samples, stacks):
        levels = [f for a in st if a is not None for f in frames_of.get(a, [])]
        funcs = {fn for fn, _ in levels}
        if st[0] is None:
            caller = frames_of.get(st[1], [("?", "")])[0][0] if len(st) > 1 else "?"
            leaf[f"{outside(s[0])} from {short(caller)}"] += 1
            funcs.add(outside(s[0]))
        else:
            leaf[frames_of[st[0]][0][0]] += 1
        incl.update(fn for fn in funcs if not RUNTIME.match(fn))
        hit = next(((fn, loc) for fn, loc in levels if loc.startswith(repo)), None)
        if hit:
            fn, loc = hit
            repo_line[f"{loc[len(repo):].split(' ')[0]}  {short(fn)}"] += 1
        for pat in args.share:
            if all(any(re.search(p, fn) for fn in funcs) for p in pat.split("&&")):
                share[pat] += 1

    print(f"{n} samples, whole process")
    for title, tally in (("leaf", leaf), ("inclusive", incl), ("repo line", repo_line)):
        print(f"\n## {title}")
        for name, c in tally.most_common(args.top):
            print(f"{100 * c / n:6.1f} %  {short(name)}")
    if args.share:
        print("\n## share")
        for pat in args.share:
            print(f"{100 * share[pat] / n:6.1f} %  {pat}")


def short(fn):
    """A demangled name without its hash and generic arguments (a leading
    `<T as Trait>` qualification is kept, its own generics dropped)."""
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    kept, skip = [], 0
    for ch in fn:
        if skip:
            skip += (ch == "<") - (ch == ">")
        elif ch == "<" and kept and (kept[-1].isalnum() or kept[-1] == "_"):
            skip = 1
        else:
            kept.append(ch)
    return "".join(kept)[:110]


if __name__ == "__main__":
    main()
