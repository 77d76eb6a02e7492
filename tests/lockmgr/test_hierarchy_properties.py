"""Property-based tests of multi-granularity locking (hypothesis).

Random request/release scripts drive the simulation's hierarchical
engine (:class:`repro.core.hierarchy_engine.HierarchicalConflicts`):
12 blocks in 3 files under one root, with escalation to a file lock
at 2 blocks of one file, so block, file and intention locks mix.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy_engine import ROOT, HierarchicalConflicts
from repro.core.transaction import Transaction
from repro.lockmgr import LockMode

LTOT = 12
NFILES = 3
OWNERS = 4


def build_engine():
    return HierarchicalConflicts(ltot=LTOT, nfiles=NFILES, escalation_threshold=2)


@st.composite
def lock_scripts(draw):
    """Random sequences of request / release actions."""
    n = draw(st.integers(min_value=1, max_value=40))
    script = []
    for _ in range(n):
        owner = draw(st.integers(min_value=1, max_value=OWNERS))
        if draw(st.booleans()):
            blocks = draw(
                st.lists(
                    st.integers(min_value=0, max_value=LTOT - 1),
                    min_size=1, max_size=5, unique=True,
                )
            )
            script.append(("lock", owner, blocks, draw(st.booleans())))
        else:
            script.append(("unlock", owner))
    return script


def play(engine, script, check=None):
    """Run *script*; an owner already holding locks skips its request."""
    active = {}
    for action in script:
        if action[0] == "lock":
            _, tid, blocks, is_writer = action
            if tid in active:
                continue
            txn = Transaction(
                tid, nu=len(blocks), lock_count=len(blocks),
                granules=blocks, is_writer=is_writer,
            )
            if engine.request(txn) is None:
                active[tid] = txn
            else:
                engine.release(txn)
        elif action[1] in active:
            engine.release(active.pop(action[1]))
        if check is not None:
            check(engine, active)
    return active


class TestHierarchyProperties:
    @given(lock_scripts())
    @settings(max_examples=80, deadline=None)
    def test_invariants_after_every_action(self, script):
        def check(engine, active):
            table = engine.manager.table
            table.check_invariants()
            # Gray's protocol: a holder of a block holds some lock on
            # its file and on the root.
            for txn in active.values():
                assert table.mode_of(ROOT, txn) is not None
                for node in table.locked_granules(txn):
                    if node[0] == "b":
                        file_node = ("f", engine.file_of(node[1]))
                        assert table.mode_of(file_node, txn) is not None

        play(build_engine(), script, check)

    @given(lock_scripts())
    @settings(max_examples=60, deadline=None)
    def test_no_writer_under_reader_conflict(self, script):
        """If someone holds S on a file, nobody else holds X on the
        file or on any of its blocks."""
        engine = build_engine()
        play(engine, script)
        table = engine.manager.table
        for file_id in range(NFILES):
            file_node = ("f", file_id)
            for holder, mode in table.holders(file_node).items():
                if mode is not LockMode.S:
                    continue
                for other, other_mode in table.holders(file_node).items():
                    assert other == holder or other_mode is not LockMode.X
                for block in range(LTOT):
                    if engine.file_of(block) != file_id:
                        continue
                    for other, other_mode in table.holders(("b", block)).items():
                        assert other == holder or other_mode is not LockMode.X

    @given(lock_scripts())
    @settings(max_examples=40, deadline=None)
    def test_unlock_everyone_empties_table(self, script):
        engine = build_engine()
        for txn in play(engine, script).values():
            engine.release(txn)
        assert len(engine.manager.table) == 0
        assert engine.active_count == 0
