"""A model built with none of the divisor data that other models share.

`section_ring` shares each divisor's pieces, generators and product memos
among its models.  A test that compares a model with a fresh build must
build the fresh side from nothing, or it compares the shared record with
itself; clearing the records first does that.  Models built before keep
the record they hold.
"""

from qsection import section_ring


def cold_build(D, bound=None):
    section_ring._divisor_data.cache_clear()
    return section_ring.build_section_ring(D, bound)
