/* Compiled kernel for the binomial Groebner engine, with the contract of
   _kernel_py: an Order holds the weight matrix of a monomial order; a Basis
   holds rules lead -> tail in one flat C array, and normal_form rewrites with
   the first divisible lead in append order, restarting after every hit,
   until no lead divides or the step budget is spent (None).
   normal_form_until walks the same chain and returns its target once the
   chain reaches it. An exponent outside 0..MAX_EXPONENT, given or made by a
   rewrite, raises LimitExceededError and a wrong width raises ValueError,
   with the pure kernel's messages; the monomial is checked before the
   target. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>
#define MAX_EXPONENT 0x7FFF
#define MAX_NVARS (INT_MAX / 8)  /* 2**28 - 1, the bound _kernel_py checks too */
#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static const char WIDTH_MESSAGE[] = "exponent tuple has wrong length";
static PyObject *LimitExceededError;  /* polyprime.errors.LimitExceededError */

static PyObject *error(PyObject *type, const char *message) { PyErr_SetString(type, message); return NULL; }

/* Raise LimitExceededError(format % (tuple(mono), MAX_EXPONENT)); NULL. */
static PyObject *limit_error(const char *format, PyObject *mono) {
    PyObject *t = PySequence_Tuple(mono);
    if (t != NULL) PyErr_Format(LimitExceededError, format, t, MAX_EXPONENT);
    Py_XDECREF(t);
    return NULL;
}

typedef struct {
    PyObject_HEAD
    PyObject *rows;   /* the rows as given, for the pure kernel's compare */
    long long *w;     /* nrows x nvars weights, row-major, then nvars of scratch */
    Py_ssize_t nrows, nvars;
    int exact;        /* rectangular, and no sum can overflow: |sum| < 2**16 * 2**31 * 2**15 */
} OrderObject;

static void Order_dealloc(OrderObject *self) {
    PyMem_Free(self->w);
    Py_XDECREF(self->rows);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *Order_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    PyObject *rows;
    OrderObject *self = (OrderObject *)type->tp_alloc(type, 0);
    if (self == NULL || !PyArg_ParseTuple(args, "O:Order", &rows) || !(self->rows = PySequence_Tuple(rows)))
        goto fail;
    self->nrows = PyTuple_GET_SIZE(self->rows);
    self->nvars = self->nrows ? PyObject_Length(PyTuple_GET_ITEM(self->rows, 0)) : 0;
    if (self->nvars < 0 || self->nvars > INT_MAX / 8 ||
            !(self->w = PyMem_Calloc(self->nrows + 1, self->nvars * sizeof(long long))))
        goto fail;
    self->exact = self->nvars <= 0xFFFF;
    for (Py_ssize_t r = 0; r < self->nrows; r++) {
        PyObject *row = PySequence_Fast(PyTuple_GET_ITEM(self->rows, r), "a weight row must be a sequence");
        if (row == NULL) goto fail;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(row);
        self->exact &= len == self->nvars;
        for (Py_ssize_t i = 0; i < len && i < self->nvars && !PyErr_Occurred(); i++) {
            int overflow;
            long long v = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(row, i), &overflow);
            self->exact &= !overflow && v <= INT_MAX && v >= -INT_MAX;
            self->w[r * self->nvars + i] = v;
        }
        Py_DECREF(row);
        if (PyErr_Occurred()) goto fail;
    }
    return (PyObject *)self;
fail:
    if (!PyErr_Occurred()) PyErr_NoMemory();
    Py_XDECREF(self);
    return NULL;
}

static PyTypeObject OrderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "polyprime._speedups.Order", .tp_doc = "Order(rows): the weight matrix of a monomial order.",
    .tp_basicsize = sizeof(OrderObject), .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Order_new, .tp_dealloc = (destructor)Order_dealloc,
};

static PyObject *compare_in_python(OrderObject *order, PyObject *a, PyObject *b) {
    PyObject *pure = PyImport_ImportModule("polyprime._kernel_py");
    PyObject *pure_order = pure ? PyObject_CallMethod(pure, "Order", "(O)", order->rows) : NULL;
    PyObject *out = pure_order ? PyObject_CallMethod(pure, "compare", "(OOO)", pure_order, a, b) : NULL;
    Py_XDECREF(pure_order);
    Py_XDECREF(pure);
    return out;
}

/* Sums in C when every exponent is an int within the limit and every weight
   fits in an int, so that no sum can overflow; any other input goes to the
   pure kernel's compare, whose ints never overflow. */
static PyObject *compare(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 3 || !PyObject_TypeCheck(args[0], &OrderType))
        return error(PyExc_TypeError, "compare(order, a, b) takes an Order and two tuples");
    OrderObject *order = (OrderObject *)args[0];
    PyObject *a = args[1], *b = args[2];
    Py_ssize_t n = order->nvars;
    if (!PyTuple_Check(a) || !PyTuple_Check(b) || !order->exact) return compare_in_python(order, a, b);
    if (PyTuple_GET_SIZE(a) != n || PyTuple_GET_SIZE(b) != n) return error(PyExc_ValueError, WIDTH_MESSAGE);
    int equal = PyObject_RichCompareBool(a, b, Py_EQ);
    if (equal != 0) return equal < 0 ? NULL : PyLong_FromLong(0);
    /* only exact ints reach the scratch row, so no Python code runs while it is in use */
    long long *diff = order->w + order->nrows * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *x = PyTuple_GET_ITEM(a, i), *y = PyTuple_GET_ITEM(b, i);
        int overflow;  /* an overflow returns -1 */
        long ea = PyLong_CheckExact(x) ? PyLong_AsLongAndOverflow(x, &overflow) : -1;
        long eb = PyLong_CheckExact(y) ? PyLong_AsLongAndOverflow(y, &overflow) : -1;
        if (ea < 0 || eb < 0 || ea > MAX_EXPONENT || eb > MAX_EXPONENT) return compare_in_python(order, a, b);
        diff[i] = ea - eb;
    }
    long sign = 0;
    for (Py_ssize_t r = 0; r < order->nrows && sign == 0; r++) {
        long long s = 0;
        for (Py_ssize_t i = 0; i < n; i++)
            s += order->w[r * n + i] * diff[i];
        sign = (s > 0) - (s < 0);
    }
    return PyLong_FromLong(sign);
}

typedef struct {
    PyObject_HEAD
    int *rules;   /* count rules of 2 x nvars exponents: the lead's, then the tail's */
    Py_ssize_t count, cap, nvars;
} BasisObject;

static PyObject *Basis_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    Py_ssize_t nvars;
    if (!PyArg_ParseTuple(args, "n:Basis", &nvars)) return NULL;
    if (nvars < 0 || nvars > MAX_NVARS)
        return PyErr_Format(PyExc_ValueError, "nvars must be in 0..%d", MAX_NVARS);
    BasisObject *self = (BasisObject *)type->tp_alloc(type, 0);
    if (self != NULL) self->nvars = nvars;
    return (PyObject *)self;
}

static void Basis_dealloc(BasisObject *self) {
    PyMem_Free(self->rules);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t Basis_len(BasisObject *self) { return self->count; }

/* 0 if mono has n entries, else -1 with the pure kernel's error; callers
   check this before they allocate for mono. */
static int width(PyObject *mono, Py_ssize_t n) {
    Py_ssize_t len = PyObject_Length(mono);
    if (len >= 0 && len != n) error(PyExc_ValueError, WIDTH_MESSAGE);
    return len == n ? 0 : -1;
}

/* Copy the exponents of mono into dst; -1 with the pure kernel's error if
   mono has the wrong width or an exponent outside 0..MAX_EXPONENT. */
static int fill(int *dst, PyObject *mono, Py_ssize_t n) {
    PyObject *seq = PySequence_Fast(mono, "exponents must be a sequence");
    int ok = seq != NULL && PySequence_Fast_GET_SIZE(seq) == n;
    if (seq != NULL && !ok) error(PyExc_ValueError, WIDTH_MESSAGE);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        int overflow;
        long e = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        ok = !(e == -1 && PyErr_Occurred());
        if (ok && (overflow || e < 0 || e > MAX_EXPONENT)) {
            limit_error("exponent of %R outside the kernel limit 0..%d", mono);
            ok = 0;
        }
        dst[i] = (int)e;
    }
    Py_XDECREF(seq);
    return ok ? 0 : -1;
}

static PyObject *Basis_append(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t n = self->nvars;
    if (nargs != 2) return error(PyExc_TypeError, "append(lead, tail) takes two tuples");
    if (width(args[0], n) < 0) return NULL;
    if (self->count == self->cap) {
        Py_ssize_t cap = self->cap ? 2 * self->cap : 1;
        int *rules = PyMem_Realloc(self->rules, cap * 2 * n * sizeof(int) + 1);
        if (rules == NULL) return PyErr_NoMemory();
        self->rules = rules;
        self->cap = cap;
    }
    int *lead = self->rules + self->count * 2 * n;
    if (fill(lead, args[0], n) < 0 || fill(lead + n, args[1], n) < 0) return NULL;
    self->count++;
    Py_RETURN_NONE;
}

/* Rewrite m in place: the normal form as a tuple, None past the budget, or
   target (new reference) once m equals t, when t is not NULL. */
static PyObject *rewrite(BasisObject *self, int *m, long long budget, PyObject *mono,
                         const int *t, PyObject *target) {
    Py_ssize_t n = self->nvars, k;
    long long steps = 0;
    if (t != NULL && memcmp(m, t, n * sizeof(int)) == 0) goto reached;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        const int *lead = self->rules + i * 2 * n, *tail = lead + n;
        for (k = 0; k < n && lead[k] <= m[k]; k++) {}
        if (k < n) continue;
        if (steps++ >= budget) Py_RETURN_NONE;
        int over = 0;
        for (k = 0; k < n; k++) {
            m[k] += tail[k] - lead[k];
            over |= m[k] > MAX_EXPONENT;
        }
        if (over) return limit_error("rewriting %R pushed an exponent past the kernel limit %d", mono);
        if (t != NULL && memcmp(m, t, n * sizeof(int)) == 0) goto reached;
        i = -1;  /* restart the scan */
    }
    PyObject *out = PyTuple_New(n);
    for (k = 0; out != NULL && k < n; k++) {
        PyTuple_SET_ITEM(out, k, PyLong_FromLong(m[k]));  /* a tuple frees a NULL item safely */
        if (PyTuple_GET_ITEM(out, k) == NULL) Py_CLEAR(out);
    }
    return out;
reached:
    Py_INCREF(target);
    return target;
}

/* A new buffer holding the exponents of mono, or NULL with the pure kernel's
   error; the width is checked before anything is allocated. */
static int *exponents(PyObject *mono, Py_ssize_t n) {
    if (width(mono, n) < 0) return NULL;
    int *dst = PyMem_Malloc(n * sizeof(int) + 1);
    if (dst == NULL) {
        PyErr_NoMemory();
    } else if (fill(dst, mono, n) < 0) {
        PyMem_Free(dst);
        dst = NULL;
    }
    return dst;
}

/* normal_form(mono, budget) for nargs == 2, normal_form_until(mono, budget,
   target) for nargs == 3; the monomial is checked before the target. */
static PyObject *normal_form(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    int overflow;
    long long budget = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (budget == -1 && PyErr_Occurred()) return NULL;
    if (overflow) budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    Py_ssize_t n = self->nvars;
    PyObject *target = nargs == 3 ? args[2] : NULL, *out = NULL;
    int *m = exponents(args[0], n), *t = m != NULL && target != NULL ? exponents(target, n) : NULL;
    if (m != NULL && (target == NULL || t != NULL)) out = rewrite(self, m, budget, args[0], t, target);
    PyMem_Free(m);
    PyMem_Free(t);
    return out;
}

static PyObject *Basis_normal_form(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 2) return error(PyExc_TypeError, "normal_form(mono, budget) takes two arguments");
    return normal_form(self, args, nargs);
}

static PyObject *Basis_normal_form_until(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 3) return error(PyExc_TypeError, "normal_form_until(mono, budget, target) takes three arguments");
    return normal_form(self, args, nargs);
}

static PyMethodDef Basis_methods[] = {
    {"append", FASTCALL(Basis_append), "append(lead, tail): add the rule lead -> tail."},
    {"normal_form", FASTCALL(Basis_normal_form), "normal_form(mono, budget): the normal form, or None."},
    {"normal_form_until", FASTCALL(Basis_normal_form_until),
     "normal_form_until(mono, budget, target): target once the rewrite chain reaches it, else as normal_form."},
    {NULL},
};

static PySequenceMethods Basis_as_sequence = {.sq_length = (lenfunc)Basis_len};

static PyTypeObject BasisType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "polyprime._speedups.Basis", .tp_doc = "Basis(nvars): rewrite rules lead -> tail.",
    .tp_basicsize = sizeof(BasisObject), .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Basis_new, .tp_dealloc = (destructor)Basis_dealloc,
    .tp_methods = Basis_methods, .tp_as_sequence = &Basis_as_sequence,
};

static int exec_module(PyObject *module) {
    PyObject *errors = PyImport_ImportModule("polyprime.errors");
    Py_XSETREF(LimitExceededError, errors ? PyObject_GetAttrString(errors, "LimitExceededError") : NULL);
    Py_XDECREF(errors);
    return LimitExceededError == NULL || PyType_Ready(&OrderType) < 0 || PyType_Ready(&BasisType) < 0 ||
           PyModule_AddType(module, &OrderType) < 0 || PyModule_AddType(module, &BasisType) < 0 ||
           PyModule_AddStringConstant(module, "BACKEND", "c") < 0 ||
           PyModule_AddIntConstant(module, "MAX_EXPONENT", MAX_EXPONENT) < 0 ||
           PyModule_AddIntConstant(module, "MAX_NVARS", MAX_NVARS) < 0 ? -1 : 0;
}

static PyMethodDef module_methods[] = {
    {"compare", FASTCALL(compare), "compare(order, a, b): -1, 0 or 1 as a is below, equal to or above b."},
    {NULL},
};

static PyModuleDef_Slot module_slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, .m_name = "polyprime._speedups",
    .m_doc = "Compiled kernel for the binomial Groebner engine; same contract as _kernel_py.",
    .m_methods = module_methods, .m_slots = module_slots,
};

PyMODINIT_FUNC PyInit__speedups(void) { return PyModuleDef_Init(&module_def); }
