/* Cyclic Jacobi diagonalization of complex Hermitian matrices (compiled twin).
 *
 * Compiled twin of qir._jacobi_py, written by hand against Python's buffer
 * protocol; it needs neither numpy's C API nor Cython. The two twins follow
 * the same rotation schedule and formulas: one sweep visits every pair
 * (p, q) with p < q in row order and applies the plane rotation that zeros
 * a[p, q]; sweeps repeat until the off-diagonal Frobenius norm is at most
 * OFF_NORM_FACTOR times the Frobenius norm of the input, or the rotation
 * budget runs out.
 *
 * Two entries, as in qir._jacobi_py:
 *   jacobi_eigh(a, v, max_rotations) -> (rotations, converged)
 *   jacobi_eigh_stack(b, max_rotations) -> ([rotations], [converged])
 * take C-contiguous complex128 buffers: (n, n) ``a`` and ``v``, or one
 * (k, m, n) ``b`` whose slices are [a; v], m = n (no ``v``) or 2n. ``a`` is
 * exactly Hermitian (its bytes those of its conjugate transpose up to the
 * sign of a zero) and ``v`` the identity on entry. A rotation updates
 * columns p and q of ``a`` and ``v`` and copies rows p and q of ``a`` from
 * the conjugated columns, as the Python twins do; rows never get a rotation
 * of their own. On exit the eigenvalues sit on the diagonal of ``a``
 * (unordered) and the columns of ``v`` are the matching eigenvectors. The
 * stack entry loops over the slices in C; each slice gets the bits the
 * per-matrix entry gives it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>
#include <math.h>

typedef double complex cplx;

#define OFF_NORM_FACTOR 1e-14

/* A complex value from its parts, as C99 x + y*I, the way the Cython-generated
 * twin this file replaced built c, sigma, beta and the pinned diagonal: a real
 * part of -0.0 becomes +0.0, and CX(c, 0) * z is a complex product, not a real
 * one. Both decide the signs of zeros in the results. */
#define CX(x, y) ((x) + (y) * (cplx)_Complex_I)
#define ABS2(z) (creal(z) * creal(z) + cimag(z) * cimag(z))

/* Rotates the row-major n x n a and vrows x n v in place; returns the rotation count.
 *
 * no-tree-vectorize: gcc 12.2's -O2 vectorizer makes these loops about 1.4x as
 * slow at n = 9 and 15. fp-contract=off: without it a build for a target with
 * FMA (-march=native on x86-64) fuses products into sums and changes the
 * bits from n = 2 on. Both live in the source, not in a build line, so that
 * every gcc build gives these bits. */
__attribute__((optimize("no-tree-vectorize", "fp-contract=off")))
static long rotate(cplx *a, cplx *v, Py_ssize_t n, Py_ssize_t vrows, long max_rotations, int *converged)
{
    double fro2 = 0.0, off2, thr, skip;
    long rotations = 0;
    Py_ssize_t p, q, k;

    for (p = 0; p < n * n; p++)
        fro2 += ABS2(a[p]);
    thr = OFF_NORM_FACTOR * sqrt(fro2);
    skip = n > 0 ? thr / n : 0.0;

    for (;;) {
        off2 = 0.0;
        for (p = 0; p < n - 1; p++)
            for (q = p + 1; q < n; q++)
                off2 += 2.0 * ABS2(a[p * n + q]);
        *converged = sqrt(off2) <= thr;
        if (*converged || rotations >= max_rotations)
            return rotations;
        for (p = 0; p < n - 1 && rotations < max_rotations; p++) {
            for (q = p + 1; q < n && rotations < max_rotations; q++) {
                cplx apq = a[p * n + q], s;
                double beta = sqrt(ABS2(apq)), app, aqq, theta, sgn, t, c;
                if (beta <= skip)
                    continue;
                app = creal(a[p * n + p]);
                aqq = creal(a[q * n + q]);
                theta = (aqq - app) / (2.0 * beta);
                sgn = theta >= 0.0 ? 1.0 : -1.0;
                t = -sgn / (sgn * theta + sqrt(theta * theta + 1.0));
                c = 1.0 / sqrt(1.0 + t * t);
                /* s = sigma * conj(apq / beta): beats the rotation phase onto
                 * the plane of the pivot entry. */
                s = CX(t * c, 0) * (conj(apq) / CX(beta, 0));
                for (k = 0; k < n; k++) {
                    cplx akp, akq;
                    if (k == p || k == q)
                        continue;
                    akp = a[k * n + p];
                    akq = a[k * n + q];
                    a[k * n + p] = CX(c, 0) * akp + s * akq;
                    a[k * n + q] = -conj(s) * akp + CX(c, 0) * akq;
                    a[p * n + k] = conj(a[k * n + p]);
                    a[q * n + k] = conj(a[k * n + q]);
                }
                a[p * n + p] = CX(app + t * beta, 0);
                a[q * n + q] = CX(aqq - t * beta, 0);
                a[p * n + q] = CX(0.0, 0);
                a[q * n + p] = CX(0.0, 0);
                for (k = 0; k < vrows; k++) {
                    cplx vkp = v[k * n + p], vkq = v[k * n + q];
                    v[k * n + p] = CX(c, 0) * vkp + s * vkq;
                    v[k * n + q] = -conj(s) * vkp + CX(c, 0) * vkq;
                }
                rotations++;
            }
        }
    }
}

/* ``obj`` as a writable C-contiguous complex128 buffer of ``ndim`` dimensions,
 * the last two (n, n), or (2n, n) in a stack, and n equal to ``n`` unless that
 * is negative; 0, or -1 with an exception set. */
static int get_buffer(PyObject *obj, Py_buffer *view, int ndim, Py_ssize_t n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->ndim == ndim && strcmp(view->format, "Zd") == 0 && (n < 0 || view->shape[ndim - 1] == n)
        && (view->shape[ndim - 2] == view->shape[ndim - 1] || (ndim == 3 && view->shape[1] == 2 * view->shape[2])))
        return 0;
    PyErr_SetString(PyExc_ValueError, "kernel buffers must be C-contiguous complex128: (n, n) matrices "
                    "of equal size, or a (k, m, n) stack with m = n or 2n");
    PyBuffer_Release(view);
    return -1;
}

static PyObject *jacobi_eigh(PyObject *self, PyObject *args)
{
    PyObject *a, *v;
    Py_buffer va, vv;
    long max_rotations, rotations;
    int converged;

    if (!PyArg_ParseTuple(args, "OOl", &a, &v, &max_rotations) || get_buffer(a, &va, 2, -1) < 0)
        return NULL;
    if (get_buffer(v, &vv, 2, va.shape[0]) < 0) {
        PyBuffer_Release(&va);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    rotations = rotate(va.buf, vv.buf, va.shape[0], va.shape[0], max_rotations, &converged);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&va);
    PyBuffer_Release(&vv);
    return Py_BuildValue("(lN)", rotations, PyBool_FromLong(converged));
}

static PyObject *jacobi_eigh_stack(PyObject *self, PyObject *args)
{
    PyObject *b, *counts, *flags, *count = Py_None;
    Py_buffer vb;
    long max_rotations, rotations;
    Py_ssize_t i, k, m, n;
    int converged;

    if (!PyArg_ParseTuple(args, "Ol", &b, &max_rotations) || get_buffer(b, &vb, 3, -1) < 0)
        return NULL;
    k = vb.shape[0];
    m = vb.shape[1];
    n = vb.shape[2];
    counts = PyList_New(k);
    flags = PyList_New(k);
    for (i = 0; counts && flags && count && i < k; i++) {
        cplx *slice = (cplx *)vb.buf + i * m * n;
        Py_BEGIN_ALLOW_THREADS
        rotations = rotate(slice, slice + n * n, n, m - n, max_rotations, &converged);
        Py_END_ALLOW_THREADS
        count = PyLong_FromLong(rotations);
        PyList_SET_ITEM(counts, i, count);
        PyList_SET_ITEM(flags, i, PyBool_FromLong(converged));
    }
    PyBuffer_Release(&vb);
    if (counts && flags && count)
        return Py_BuildValue("(NN)", counts, flags);
    Py_XDECREF(counts);
    Py_XDECREF(flags);
    return NULL;
}

static PyMethodDef methods[] = {
    {"jacobi_eigh", jacobi_eigh, METH_VARARGS,
     "Diagonalize the Hermitian (n, n) ``a`` in place, accumulating the unitary in ``v``;\n"
     "returns ``(rotations, converged)``."},
    {"jacobi_eigh_stack", jacobi_eigh_stack, METH_VARARGS,
     "``jacobi_eigh`` of each slice [a; v] of a (k, m, n) buffer, m = n or 2n;\n"
     "returns per-slice ``(rotations, converged)`` lists."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_jacobi",
    "Cyclic Jacobi diagonalization of complex Hermitian matrices (compiled twin).", -1, methods,
};

PyMODINIT_FUNC PyInit__jacobi(void) { return PyModule_Create(&module); }
