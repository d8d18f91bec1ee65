"""R011 fixture: version-guarded mutations that skip the bump, and a
caller that mutates a cached-view return in place."""


class Graph:
    """Minimal version-guarded class (writes self._version)."""

    def __init__(self):
        self._adj = {}
        self._edge_labels = {}
        self._version = 0
        self._views = (0, {})

    def add_node(self, node):
        self._adj[node] = set()
        self._version += 1

    def prune(self, node):
        # early return path never bumps the version
        if node in self._adj:
            self._adj.pop(node)  # expect: R011
            return True
        return False

    def relabel(self, key, label):
        self._edge_labels[key] = label  # expect: R011
        # falls through without bumping


def merge_neighbors(graph, u, v):
    adj = graph.adjacency_sets()
    adj[u].add(v)  # expect: R011
    return adj


def drop_code(graph, code, take_census):
    census = graph.view(("subtree_census", 3), take_census)
    census.pop(code)  # expect: R011
    return census
