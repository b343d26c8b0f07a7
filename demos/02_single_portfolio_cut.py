"""One spectral portfolio cut, checked against exhaustive search.

Builds an 8-vertex graph with two tight clusters joined by three weak edges
(crossing weights 0.32 + 0.24 + 0.23 = 0.79), then compares the Fiedler-sign
bisection with the brute-force minimum over all 127 bipartitions, for both
the cardinality- and volume-normalized objectives.
"""

import numpy as np

from portcut import (
    CutObjective,
    MarketGraph,
    bipartition_count,
    brute_force_min_cut,
    cut_value,
    fiedler_vector,
    spectral_bisect,
)

np.set_printoptions(precision=3, suppress=True)

w = np.zeros((8, 8))
edges = [
    (0, 1, 0.60), (0, 2, 0.55), (0, 3, 0.50),
    (1, 2, 0.65), (1, 3, 0.45), (2, 3, 0.70),   # cluster {0,1,2,3}
    (4, 5, 0.62), (4, 6, 0.58), (4, 7, 0.49),
    (5, 6, 0.66), (5, 7, 0.52), (6, 7, 0.71),   # cluster {4,5,6,7}
    (3, 4, 0.32), (2, 5, 0.24), (1, 6, 0.23),   # the three crossing edges
]
for i, j, v in edges:
    w[i, j] = w[j, i] = v
graph = MarketGraph(w)

side = np.array([1, 1, 1, 1, 2, 2, 2, 2])
print("crossing weight of the cluster split:", cut_value(graph, side))
print("candidate bipartitions of 8 vertices:", bipartition_count(8))

for objective in CutObjective:
    lam2, u2 = fiedler_vector(graph, objective)
    part = spectral_bisect(graph, objective)
    oracle = brute_force_min_cut(graph, objective)
    print(f"\n--- {objective.value} ---")
    print("Fiedler vector:", u2)
    print("lambda2 (separability; small = easy to cut):", round(lam2, 6))
    print("spectral split :", part.side_of, "objective:", round(part.objective_value, 6))
    print("brute force    :", oracle.side_of, "objective:", round(oracle.objective_value, 6))
    same = set(map(tuple, [np.flatnonzero(part.side_of == 1),
                           np.flatnonzero(oracle.side_of == 1)]))
    print("same partition?", len(same) == 1
          or part.side_of.tolist() == (3 - oracle.side_of).tolist())

print("\nThe signs of the Fiedler vector recover the planted clusters without")
print("enumerating candidates; for 500 assets enumeration would need")
print(f"{float(bipartition_count(500)):.1e} evaluations.")
