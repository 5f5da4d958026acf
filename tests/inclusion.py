"""The termwise inclusion IC -> IC_log(z), as an oracle for the tests.

The package builds i^! = IC_log(z)/IC slot by slot and never forms this map.
Here it is assembled from the two slot layouts: slot (K, ci) of IC lies in
slot (K, ci) of IC_log(z), and the block is the coordinates of the one in the
other.  Validating it checks that the inclusion is a filtered chain map, and
its cone, shifted by -1, is a second route to i^!.
"""

from loghodge.complexes import ComplexMap
from loghodge.linalg import Matrix, place


def ic_into_iclog(ic, log):
    """The termwise inclusion of ic into log, validated."""
    maps = {}
    for k in ic.degrees():
        if not ic.term_dim(k):
            continue
        pieces = []
        for key, (pos, space) in ic.layout[k].items():
            t_pos, t_space = log.layout[k][key]
            block = Matrix([t_space.coords(v) for v in space.sub.basis],
                           cols=t_space.dim).transpose()
            pieces.append((block, t_pos, pos))
        maps[k] = place((log.term_dim(k), ic.term_dim(k)), pieces)
    out = ComplexMap(ic, log, maps)
    out.validate()
    return out
