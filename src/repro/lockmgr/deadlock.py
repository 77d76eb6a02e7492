"""Waits-for-graph deadlock detection for the incremental protocol.

The paper's conservative (preclaim) scheme makes deadlock impossible;
the "claim as needed" variant it cites (Ries & Stonebraker 1979,
footnote 1) does not.  This module provides detection over a
:class:`~repro.lockmgr.manager.LockManager`'s waits-for edges using a
stdlib-only iterative depth-first cycle search, plus a pluggable
victim-selection policy.  The package stays zero-dependency: the
digraph is a plain waiter → holders dict, not a networkx graph.
"""


class DeadlockDetector:
    """Finds waits-for cycles and picks victims to break them.

    Parameters
    ----------
    manager:
        The :class:`~repro.lockmgr.manager.LockManager` to inspect.
    victim_key:
        Function mapping an owner to a sortable cost; the owner with
        the **largest** key in a cycle is chosen as victim (default:
        the owner itself, so the "youngest" — largest id — dies, a
        common policy when ids are assigned in start order).
    """

    def __init__(self, manager, victim_key=None):
        self._manager = manager
        self._victim_key = victim_key if victim_key is not None else lambda o: o

    def find_cycle(self):
        """One deadlock cycle as a list of owners, or ``None``.

        Iterative DFS over the manager's waits-for edges with an
        explicit stack and grey/black marking, so arbitrarily long
        waiting chains cannot hit the interpreter recursion limit.
        Roots and successors are visited in edge order, which keeps
        the result deterministic for a given lock table without
        requiring owners to be sortable.
        """
        succ = {}
        for waiter, holder in self._manager.waits_for_edges():
            succ.setdefault(waiter, []).append(holder)
        done = set()
        for root in succ:
            if root in done:
                continue
            path = [root]
            on_path = {root}
            stack = [iter(succ[root])]
            while stack:
                advanced = False
                for nxt in stack[-1]:
                    if nxt in on_path:
                        return path[path.index(nxt):]
                    if nxt not in done:
                        path.append(nxt)
                        on_path.add(nxt)
                        stack.append(iter(succ.get(nxt, ())))
                        advanced = True
                        break
                if not advanced:
                    node = path.pop()
                    on_path.discard(node)
                    done.add(node)
                    stack.pop()
        return None

    def choose_victim(self, cycle):
        """The owner in *cycle* with the largest victim key."""
        return max(cycle, key=self._victim_key)

    def resolve_once(self):
        """Detect one cycle and pick its victim.

        Returns the victim owner, or ``None`` when no deadlock exists.
        The caller is responsible for actually aborting the victim
        (cancelling its waiting requests and releasing its locks);
        the detector never mutates the lock table.
        """
        cycle = self.find_cycle()
        if cycle is None:
            return None
        return self.choose_victim(cycle)
