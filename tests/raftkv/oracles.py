"""Safety oracles over an :class:`~repro.raftkv.EtcdCluster`'s nodes,
shared by the Raft unit and property tests."""


def logs_consistent(cluster):
    """Check the Log Matching property across live nodes.

    Returns True when every pair of live nodes agrees on every index
    up to the shorter log's length *at matching terms*.
    """
    live = [n for n in cluster.nodes.values() if n.alive]
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            upto = min(a.log.last_index, b.log.last_index,
                       a.commit_index, b.commit_index)
            start = max(a.log.offset, b.log.offset) + 1
            for index in range(start, upto + 1):
                ea, eb = a.log.entry_at(index), b.log.entry_at(index)
                if ea.term != eb.term or ea.command != eb.command:
                    return False
    return True


def applied_states_agree(cluster):
    """All live nodes agree on data for keys applied everywhere."""
    live = [n for n in cluster.nodes.values() if n.alive]
    if len(live) < 2:
        return True
    floor = min(n.last_applied for n in live)
    # Replay-prefix equality: compare only what everyone applied.
    # Cheap approximation: compare full maps of the two most-applied
    # nodes when they applied the same amount.
    tops = sorted(live, key=lambda n: n.last_applied)[-2:]
    if tops[0].last_applied == tops[1].last_applied:
        return tops[0].state_machine.data == tops[1].state_machine.data
    return floor >= 0
