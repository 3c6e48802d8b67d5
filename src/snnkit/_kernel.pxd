# C types for _kernel.py when Cython compiles it in pure-Python mode (see
# setup.py). This file only declares; the algorithm lives in _kernel.py.

cimport cython


cdef class Kernel:
    cdef public long long t
    cdef public long long energy
    cdef public long long payload_energy
    cdef public int verdict
    cdef Py_ssize_t n
    cdef int accept_idx
    cdef int reject_idx
    cdef tuple kinds
    cdef tuple roles
    cdef tuple tn, rn, mn, md
    cdef tuple scale
    cdef list un, ud
    cdef list last
    cdef tuple delays
    cdef tuple out
    cdef set carry
    cdef dict bucket
    cdef list heap

    # Only indices and flags get C types: potentials, leak powers and weights
    # are big integers on the rational path.
    @cython.locals(k=cython.Py_ssize_t, rule=cython.int, role=cython.int,
                   lane=cython.Py_ssize_t, slots=list, acc=cython.bint, rej=cython.bint)
    cpdef step(self)
