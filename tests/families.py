"""Graph families shared by the test modules."""

from pathcomplexes.digraph import Digraph


def _grid(rows: int, cols: int, both_ways: bool) -> Digraph:
    name = lambda i, j: f"g{i}_{j}"
    pairs = [(name(i, j), name(i + di, j + dj))
             for i in range(rows) for j in range(cols)
             for di, dj in ((0, 1), (1, 0)) if i + di < rows and j + dj < cols]
    edges = [e for u, v in pairs for e in (((u, v), (v, u)) if both_ways else ((u, v),))]
    vertices = [name(i, j) for i in range(rows) for j in range(cols)]
    return Digraph.build(vertices, edges, name(0, 0), name(rows - 1, cols - 1))


def grid_graph(rows: int, cols: int) -> Digraph:
    """Right and down edges of a rows x cols grid, corner to corner."""
    return _grid(rows, cols, both_ways=False)


def bidirected_grid(n: int) -> Digraph:
    """An n x n grid with both directions of every edge, corner to corner:
    one strongly connected component with exponentially many cycles."""
    return _grid(n, n, both_ways=True)
