#!/usr/bin/env python
"""The paper's Figures 1 and 3, end to end.

Figure 1: GCC ASan detects a stack/global buffer overflow at -O0 but misses
it at -O2 on a defective compiler version — a genuine sanitizer FN bug,
which crash-site mapping confirms.

Figure 3: both UB accesses are dead code; the optimizer removes them before
the ASan pass runs, so the -O2 binary is silent — *not* a sanitizer bug, and
crash-site mapping correctly filters the discrepancy out.

Run:  python examples/crash_site_demo.py [--smoke]
"""

from repro import GccCompiler
from repro.core import classify_discrepancy
from repro.vm.trace import format_trace, get_executed_sites

FIGURE1 = """\
struct a { int x; };
struct a b[2];
struct a *c = b, *d = b;
int k = 0;
int main() {
  *c = *b;
  k = 2;
  *c = *(d + k);
  return c->x;
}
"""

FIGURE3 = """\
int main() {
  int d[2];
  int *b = d;
  int x = 0;
  x = 3;
  d[x] = 1;
  *(b + x);
  return 0;
}
"""


def inspect(title: str, source: str, compiler: GccCompiler) -> None:
    print(f"=== {title} ===")
    print(source)
    crashing_binary = compiler.compile(source, opt_level="-O0", sanitizer="asan")
    crashing = crashing_binary.run()
    normal = compiler.compile(source, opt_level="-O2", sanitizer="asan").run()
    print(f"$ gcc -O0 -fsanitize=address a.c && ./a.out")
    if crashing.crashed:
        print(f"  {crashing.report.summary()}")
    else:
        print("  (exited normally)")
    print(f"$ gcc -O2 -fsanitize=address a.c && ./a.out")
    if normal.crashed:
        print(f"  {normal.report.summary()}")
    else:
        print("  (exited normally)")
    tail = format_trace(get_executed_sites(crashing_binary), 6)
    print(f"crash-site trace tail (-O0): {tail}")
    print(f"oracle verdict: {classify_discrepancy(crashing, normal)}")
    print()


def main() -> None:
    # Figure 1 needs the defective GCC version (the bug was later fixed).
    inspect("Figure 1: a real GCC ASan false-negative bug", FIGURE1,
            GccCompiler(version=13))
    # Figure 3 uses a defect-free compiler: the discrepancy is optimization.
    inspect("Figure 3: the optimizer removes the UB (not a sanitizer bug)",
            FIGURE3, GccCompiler(defect_registry=[]))


if __name__ == "__main__":
    main()
