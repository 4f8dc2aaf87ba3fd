"""Engine results in a form that compares with ``==``."""


def as_lists(result):
    """A :class:`~fedhh.protocol.RunResult`'s arrays as lists, beside its pair totals."""
    uploads = [(party_id, entries.tolist()) for party_id, entries in result.uploads]
    return result.topk.tolist(), result.merged.tolist(), uploads, result.report_pairs, result.package_pairs
