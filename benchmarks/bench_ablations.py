"""Ablation benchmarks: the design choices behind the core-graph recipe.

These go beyond the paper's tables, varying one fixed parameter at a time:
hub count (§2.1's "20 vertices are adequate"), hub selection strategy
("high degree vertices are good proxies for high centrality vertices"),
the connectivity pass, hub query directions, and the identification
algorithm.
"""


def test_ablation_hubs(record_experiment):
    result = record_experiment("ablation_hubs")
    precisions = [row[2] for row in result.rows]
    # precision saturates: 20 hubs within a point of 40 hubs
    assert abs(precisions[-1] - precisions[-2]) < 1.0


def test_ablation_hub_selection(record_experiment):
    result = record_experiment("ablation_hub_selection")
    rows = {row[0]: row for row in result.rows}
    assert rows["top-total-degree"][2] >= rows["random"][2] - 2.0


def test_ablation_connectivity(record_experiment):
    result = record_experiment("ablation_connectivity")
    for row in result.rows:
        if row[1] == "on":
            assert row[4] == 0


def test_ablation_direction(record_experiment):
    result = record_experiment("ablation_direction")
    rows = {row[0]: row for row in result.rows}
    assert rows["forward+backward"][1] >= rows["forward only"][1]


def test_ablation_identification(record_experiment):
    result = record_experiment("ablation_identification", floatfmt=".3f")
    by_algo = {row[0]: row for row in result.rows}
    alg2 = [v for k, v in by_algo.items() if "algorithm2" in k][0]
    alg1 = [v for k, v in by_algo.items() if "algorithm1" in k][0]
    assert alg2[2] < alg1[2]  # shared BFS trees build faster
