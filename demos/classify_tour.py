#
# A tour of the three-level classification (positive / Kadison-Schwarz /
# completely positive) across the map families.
#
from ksq import classify_full

EXAMPLES = [
    ("phi:1,1,1", "identity channel"),
    ("phi:1,-1,1", "transpose: the classic positive-but-not-CP map"),
    ("phi:0.6,0.5,0.0", "Kadison-Schwarz but not completely positive"),
    ("phi:-0.5,-0.5,-0.5", "KS boundary case the closed-form inequalities miss"),
    ("phi:0,0,0", "maximally depolarizing"),
    ("tdiag:0.25,0.25,0.25", "diagonal map into the tensor square"),
    ("tdiag:0.5,0.0,0.5", "edge of the parameter box, not CP"),
    ("tlm:0.5,0.5", "scalar pair at the CP boundary"),
    ("tlm:-0.3,0.0", "tensor map is KS although its factor channel is not"),
    ("tlm:-0.46134420037816182,0.017312831060309231", "tensor map certified KS exactly, but not CP"),
    ("tmat:0.2,0,0,0,0.1,0,0,0,0.15,0.1,0,0,0,0.2,0,0,0,0.05", "generic matrix pair"),
]


def main():
    for descriptor, story in EXAMPLES:
        print(f"\n{descriptor}   ({story})")
        verdict = classify_full(descriptor, n_samples=5000)
        for level, tri in verdict.rows():
            print(f"    {level:22s} {tri.status.value:17s} {tri.note}")


if __name__ == "__main__":
    main()
