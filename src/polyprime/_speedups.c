/* Compiled rewrite kernel for the binomial Groebner engine, with the Basis
   contract of _kernel_py; monomial comparison lives only in _kernel_py. A
   Basis holds rules lead -> tail in one flat C array, and normal_form
   rewrites with the first divisible lead in append order, restarting after
   every hit, until no lead divides or the step budget is spent (None).
   normal_form_until walks the same chain and returns its target once the
   chain reaches it. s_pair(i, j, budget) forms the two lcm cofactors of
   rules i and j in place and reduces them as normal_form and then
   normal_form_until would, with no tuple in between. An exponent outside
   0..MAX_EXPONENT, given or made by a rewrite, raises LimitExceededError
   and a wrong width raises ValueError, with the pure kernel's messages;
   the monomial is checked before the target. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>
#define MAX_EXPONENT 0x7FFF
#define MAX_NVARS (INT_MAX / 8)  /* 2**28 - 1, the bound _kernel_py checks too */
#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static const char WIDTH_MESSAGE[] = "exponent tuple has wrong length";
static const char LIMIT_FORMAT[] = "exponent of %R outside the kernel limit 0..%d";
static const char REWRITE_FORMAT[] = "rewriting %R pushed an exponent past the kernel limit %d";
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
    int *rules;   /* count rules of 2 x nvars exponents: the lead's, then the tail's */
    Py_ssize_t count, cap, nvars;
} BasisObject;

static PyObject *Basis_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *keywords[] = {"nvars", NULL};
    Py_ssize_t nvars;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n:Basis", keywords, &nvars)) return NULL;
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
            limit_error(LIMIT_FORMAT, mono);
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

enum { NORMAL, REACHED, OVER_BUDGET, OVER_LIMIT };

/* Rewrite m in place until no lead divides it (NORMAL) or, when t is not
   NULL, it equals t (REACHED); OVER_BUDGET once budget steps are spent,
   OVER_LIMIT once a rewrite pushes an exponent past MAX_EXPONENT. */
static int rewrite(BasisObject *self, int *m, long long budget, const int *t) {
    Py_ssize_t n = self->nvars, k;
    long long steps = 0;
    if (t != NULL && memcmp(m, t, n * sizeof(int)) == 0) return REACHED;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        const int *lead = self->rules + i * 2 * n, *tail = lead + n;
        for (k = 0; k < n && lead[k] <= m[k]; k++) {}
        if (k < n) continue;
        if (steps++ >= budget) return OVER_BUDGET;
        int over = 0;
        for (k = 0; k < n; k++) {
            m[k] += tail[k] - lead[k];
            over |= m[k] > MAX_EXPONENT;
        }
        if (over) return OVER_LIMIT;
        if (t != NULL && memcmp(m, t, n * sizeof(int)) == 0) return REACHED;
        i = -1;  /* restart the scan */
    }
    return NORMAL;
}

/* A new tuple of the n exponents at m. */
static PyObject *as_tuple(const int *m, Py_ssize_t n) {
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t k = 0; out != NULL && k < n; k++) {
        PyTuple_SET_ITEM(out, k, PyLong_FromLong(m[k]));  /* a tuple frees a NULL item safely */
        if (PyTuple_GET_ITEM(out, k) == NULL) Py_CLEAR(out);
    }
    return out;
}

/* limit_error naming the tuple of the n exponents at m; NULL. */
static PyObject *limit_error_at(const char *format, const int *m, Py_ssize_t n) {
    PyObject *mono = as_tuple(m, n);
    if (mono != NULL) limit_error(format, mono);
    Py_XDECREF(mono);
    return NULL;
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

/* The step budget in obj, clamped to the range of long long; -1 on error. */
static int get_budget(PyObject *obj, long long *budget) {
    int overflow;
    *budget = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*budget == -1 && PyErr_Occurred()) return -1;
    if (overflow) *budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return 0;
}

/* normal_form(mono, budget) for nargs == 2, normal_form_until(mono, budget,
   target) for nargs == 3; the monomial is checked before the target. */
static PyObject *normal_form(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    long long budget;
    if (get_budget(args[1], &budget) < 0) return NULL;
    Py_ssize_t n = self->nvars;
    PyObject *target = nargs == 3 ? args[2] : NULL, *out = NULL;
    int *m = exponents(args[0], n), *t = m != NULL && target != NULL ? exponents(target, n) : NULL;
    if (m != NULL && (target == NULL || t != NULL)) {
        switch (rewrite(self, m, budget, t)) {
        case NORMAL: out = as_tuple(m, n); break;
        case REACHED: out = Py_NewRef(target); break;
        case OVER_BUDGET: out = Py_NewRef(Py_None); break;
        default: limit_error(REWRITE_FORMAT, args[0]);
        }
    }
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

/* Write tail + lcm(lead, other) - lead to dst; nonzero if an exponent
   passes MAX_EXPONENT (each is at most 2 * MAX_EXPONENT, so none wraps). */
static int cofactor(int *dst, const int *lead, const int *tail, const int *other, Py_ssize_t n) {
    int over = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        dst[k] = tail[k] + (other[k] > lead[k] ? other[k] - lead[k] : 0);
        over |= dst[k] > MAX_EXPONENT;
    }
    return over;
}

/* s_pair(i, j, budget): the S-pair of rules i and j by append index. The
   cofactor of i is rewritten to its normal form a, then that of j until it
   reaches a, each under budget, as normal_form and normal_form_until would:
   () if they meet, else (a, b); None past the budget. An exponent past the
   limit, in a cofactor or made by a rewrite, names the cofactor, which
   start holds while its side is reduced. */
static PyObject *Basis_s_pair(BasisObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 3) return error(PyExc_TypeError, "s_pair(i, j, budget) takes three arguments");
    Py_ssize_t n = self->nvars, i = PyNumber_AsSsize_t(args[0], NULL), j;
    if (i == -1 && PyErr_Occurred()) return NULL;
    j = PyNumber_AsSsize_t(args[1], NULL);
    if (j == -1 && PyErr_Occurred()) return NULL;
    if (i < 0 || i >= self->count || j < 0 || j >= self->count)
        return error(PyExc_IndexError, "rule index out of range");
    long long budget;
    if (get_budget(args[2], &budget) < 0) return NULL;
    int *start = PyMem_Malloc(3 * n * sizeof(int) + 1), *a = start + n, *b = a + n;
    if (start == NULL) return PyErr_NoMemory();
    const int *lead_i = self->rules + i * 2 * n, *lead_j = self->rules + j * 2 * n;
    PyObject *out = NULL;
    int status = NORMAL;
    for (int side = 0; side < 2 && status == NORMAL; side++) {
        const int *lead = side ? lead_j : lead_i;
        if (cofactor(start, lead, lead + n, side ? lead_i : lead_j, n)) {
            limit_error_at(LIMIT_FORMAT, start, n);
            status = -1;
        } else {
            memcpy(side ? b : a, start, n * sizeof(int));
            status = rewrite(self, side ? b : a, budget, side ? a : NULL);
        }
    }
    if (status == REACHED) {
        out = PyTuple_New(0);
    } else if (status == NORMAL) {
        PyObject *ta = as_tuple(a, n), *tb = ta != NULL ? as_tuple(b, n) : NULL;
        out = tb != NULL ? PyTuple_Pack(2, ta, tb) : NULL;
        Py_XDECREF(ta);
        Py_XDECREF(tb);
    } else if (status == OVER_BUDGET) {
        out = Py_NewRef(Py_None);
    } else if (status == OVER_LIMIT) {
        limit_error_at(REWRITE_FORMAT, start, n);
    }
    PyMem_Free(start);
    return out;
}

static PyMethodDef Basis_methods[] = {
    {"append", FASTCALL(Basis_append), "append(lead, tail): add the rule lead -> tail."},
    {"normal_form", FASTCALL(Basis_normal_form), "normal_form(mono, budget): the normal form, or None."},
    {"normal_form_until", FASTCALL(Basis_normal_form_until),
     "normal_form_until(mono, budget, target): target once the rewrite chain reaches it, else as normal_form."},
    {"s_pair", FASTCALL(Basis_s_pair),
     "s_pair(i, j, budget): the S-pair of rules i and j reduced: () if zero, else its two normal forms, or None."},
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
    return LimitExceededError == NULL || PyType_Ready(&BasisType) < 0 || PyModule_AddType(module, &BasisType) < 0 ||
           PyModule_AddStringConstant(module, "BACKEND", "c") < 0 ||
           PyModule_AddIntConstant(module, "MAX_EXPONENT", MAX_EXPONENT) < 0 ||
           PyModule_AddIntConstant(module, "MAX_NVARS", MAX_NVARS) < 0 ? -1 : 0;
}

static PyModuleDef_Slot module_slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, .m_name = "polyprime._speedups",
    .m_doc = "Compiled rewrite kernel for the binomial Groebner engine; same Basis contract as _kernel_py.",
    .m_slots = module_slots,
};

PyMODINIT_FUNC PyInit__speedups(void) { return PyModuleDef_Init(&module_def); }
