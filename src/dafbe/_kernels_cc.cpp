// Flat-array kernels for leveled-DAFSA algebra, compiled edition.
//
// A hand-written C++17 twin of ``_kernels_py``: the same kernels under the
// same names and positional signatures, returning byte-identical canonical
// parts (see that module for the representation contract).  Arrays are
// read through the buffer protocol and must have format 'i'; results are
// array('i').
//
// Unlike the Python edition, every kernel checks its inputs before it
// reads them: CSR shape, state ids, each reachable state's symbols against
// the domain of its breadth-first level, and that each of its edges runs
// to the next level.  A violation raises
// dafbe.errors.AutomatonError, and running out of memory raises
// MemoryError, so no input can crash the interpreter.
//
// Every kernel builds its result minimal as it goes, with no merge pass:
// compile_sorted through its register, product and the subset walk behind
// determinize, minimize and remove_level through a unique table (Unique).
//
// Build by hand (setup.py does the same through setuptools):
//   g++ -std=c++17 -O2 -shared -fPIC -I<Python include dir> _kernels_cc.cpp
//       -o _kernels_cc<EXT_SUFFIX>

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr int WILDCARD = -1;
constexpr int DEAD = -1;  // a missing state on one side of a product

using Ints = std::vector<int>;
using Flags = std::vector<char>;

PyObject* automaton_error = nullptr;  // dafbe.errors.AutomatonError
PyObject* int_array = nullptr;        // array('i', [0]), repeated to size results

// Input that breaks the flat-automaton contract; raised as AutomatonError.
struct BadInput : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// A Python exception is already set.
struct PyFailure {};

std::string str(long v) { return std::to_string(v); }

struct IntsHash {
    size_t operator()(const Ints& v) const noexcept {
        uint64_t h = 0x9E3779B97F4A7C15ull ^ v.size();
        for (int x : v) {
            h = (h ^ static_cast<uint32_t>(x)) * 0x100000001B3ull;
            h ^= h >> 29;
        }
        return static_cast<size_t>(h);
    }
};

// Interns int sequences: the first sequence seen gets the id offered.
using UniqueTable = std::unordered_map<Ints, int, IntsHash>;

// -- graphs ------------------------------------------------------------------

struct Span {
    const int* b;
    const int* e;
    const int* begin() const { return b; }
    const int* end() const { return e; }
    size_t size() const { return static_cast<size_t>(e - b); }
    int operator[](size_t i) const { return b[i]; }
};

// Borrowed CSR arrays: state s's edges are [off[s], off[s + 1]).
struct CsrView {
    const int* off;
    const int* sym;
    const int* dst;
    Span syms(int s) const { return {sym + off[s], sym + off[s + 1]}; }
    Span dsts(int s) const { return {dst + off[s], dst + off[s + 1]}; }
};

// Owned CSR arrays, built one whole state at a time.
struct Csr {
    Ints off{0}, sym, dst;
    int size() const { return static_cast<int>(off.size()) - 1; }
    void add_state(const Ints& syms, const Ints& dsts) {
        sym.insert(sym.end(), syms.begin(), syms.end());
        dst.insert(dst.end(), dsts.begin(), dsts.end());
        off.push_back(static_cast<int>(sym.size()));
    }
    CsrView view() const { return {off.data(), sym.data(), dst.data()}; }
};

// Per-state edge lists that may still grow, for compile_sorted.
struct Lists {
    std::vector<Ints> sym, dst;
    Span syms(int s) const { return {sym[s].data(), sym[s].data() + sym[s].size()}; }
    Span dsts(int s) const { return {dst[s].data(), dst[s].data() + dst[s].size()}; }
};

// Flat result parts: (t_off, t_sym, t_dst, acc) with start state 0.
struct Parts {
    Ints off, sym, dst, acc;
};

Parts empty_parts() { return {{0, 0}, {}, {}, {}}; }

template <class G>
Ints bfs_levels(const G& g, int n, int root) {
    Ints lev(n, -1), order;
    order.reserve(n);
    lev[root] = 0;
    order.push_back(root);
    for (size_t head = 0; head < order.size(); ++head) {
        int s = order[head];
        for (int d : g.dsts(s)) {
            if (lev[d] < 0) {
                lev[d] = lev[s] + 1;
                order.push_back(d);
            }
        }
    }
    return lev;
}

// Canonical BFS renumbering from root.  Per-state edges must be symbol-sorted.
template <class G>
Parts renumber(const G& g, int n, const Flags& final, int root) {
    Ints old2new(n, -1), order;
    order.reserve(n);
    old2new[root] = 0;
    order.push_back(root);
    for (size_t head = 0; head < order.size(); ++head) {
        for (int d : g.dsts(order[head])) {
            if (old2new[d] < 0) {
                old2new[d] = static_cast<int>(order.size());
                order.push_back(d);
            }
        }
    }
    Parts p;
    p.off.reserve(order.size() + 1);
    p.off.push_back(0);
    for (int s : order) {
        Span syms = g.syms(s);
        p.sym.insert(p.sym.end(), syms.begin(), syms.end());
        for (int d : g.dsts(s)) p.dst.push_back(old2new[d]);
        p.off.push_back(static_cast<int>(p.sym.size()));
    }
    for (int s = 0; s < n; ++s) {
        if (final[s] && old2new[s] >= 0) p.acc.push_back(old2new[s]);
    }
    std::sort(p.acc.begin(), p.acc.end());
    return p;
}

// A complete literal fan (symbols 0..k-1) onto one successor.
bool complete_fan(const Ints& syms, const Ints& dsts, int k) {
    if (k <= 0 || syms.size() != static_cast<size_t>(k) || syms.front() != 0 || syms.back() != k - 1)
        return false;
    return std::all_of(dsts.begin(), dsts.end(), [&](int d) { return d == dsts[0]; });
}

// Result states, built children first and interned in a unique table
// keyed by (level, symbols, destinations), as _kernels_py._Unique: equal
// right languages share one state, so the result is minimal as built.
// State 0 is the accepting sink, unreachable (and dropped) if nothing
// accepts.
struct Unique {
    Csr res;
    UniqueTable table;
    Ints syms, dsts, sig;

    Unique() { res.off.push_back(0); }

    // The state whose candidate edges are kids [b, e), or DEAD: children
    // with an empty language are dropped and a complete literal fan onto
    // one child becomes a wildcard.  state_of maps a kid to its child's
    // state; kid.v is its symbol.
    template <class It, class StateOf>
    int finish(int lv, int k, It b, It e, const StateOf& state_of) {
        syms.clear();
        dsts.clear();
        for (It kid = b; kid != e; ++kid) {
            const int d = state_of(*kid);
            if (d != DEAD) {
                syms.push_back(kid->v);
                dsts.push_back(d);
            }
        }
        if (syms.empty()) return DEAD;
        if (complete_fan(syms, dsts, k)) {
            syms.assign(1, WILDCARD);
            dsts.resize(1);
        }
        sig.assign(1, lv);
        sig.insert(sig.end(), syms.begin(), syms.end());
        sig.insert(sig.end(), dsts.begin(), dsts.end());
        const auto hit = table.try_emplace(sig, res.size());
        if (hit.second) res.add_state(syms, dsts);
        return hit.first->second;
    }

    // Canonical flat parts of the automaton rooted at state root.
    Parts parts(int root) const {
        if (root == DEAD) return empty_parts();
        Flags final(res.size(), 0);
        final[0] = 1;
        return renumber(res.view(), res.size(), final, root);
    }
};

// Calls add(symbol, destination) for each edge of state s.
template <class Add>
void each_edge(const CsrView& g, int s, Add& add) {
    for (int j = g.off[s]; j < g.off[s + 1]; ++j) add(g.sym[j], g.dst[j]);
}

template <class T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

// -- Python boundary ---------------------------------------------------------

// A read-only view of an array('i') argument.
class IntBuffer {
  public:
    IntBuffer() { std::memset(&view_, 0, sizeof view_); }
    IntBuffer(const IntBuffer&) = delete;
    IntBuffer& operator=(const IntBuffer&) = delete;
    ~IntBuffer() {
        if (view_.obj) PyBuffer_Release(&view_);
    }

    void acquire(PyObject* obj, const char* name) {
        if (PyObject_GetBuffer(obj, &view_, PyBUF_FORMAT | PyBUF_ND) < 0) {
            view_.obj = nullptr;
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s must be an array('i'), not %.100s", name,
                         Py_TYPE(obj)->tp_name);
            throw PyFailure();
        }
        const char* fmt = view_.format ? view_.format : "B";
        if (view_.itemsize != sizeof(int) || (std::strcmp(fmt, "i") && std::strcmp(fmt, "@i"))) {
            PyErr_Format(PyExc_TypeError, "%s must be an array('i'), not format '%s'", name, fmt);
            throw PyFailure();
        }
    }

    const int* data() const { return static_cast<const int*>(view_.buf); }
    Py_ssize_t size() const { return view_.len / static_cast<Py_ssize_t>(sizeof(int)); }
    int operator[](Py_ssize_t i) const { return data()[i]; }

  private:
    Py_buffer view_;
};

Ints parse_domains(PyObject* obj) {
    PyObject* seq = PySequence_Fast(obj, "domains must be a sequence of ints");
    if (!seq) throw PyFailure();
    Ints dom;
    const Py_ssize_t size = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < size; ++i) {
        long k = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (k == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            throw PyFailure();
        }
        if (k < 0 || k > INT32_MAX) {
            Py_DECREF(seq);
            throw BadInput("domain size " + str(k) + " at level " + str(i) + " is not a size");
        }
        dom.push_back(static_cast<int>(k));
    }
    Py_DECREF(seq);
    return dom;
}

// One automaton argument, (n, t_off, t_sym, t_dst, acc, start), checked
// against the flat-automaton contract before anything else reads it.
struct Automaton {
    IntBuffer off_buf, sym_buf, dst_buf, acc_buf;
    int n = 0, start = 0;
    Ints lev;     // breadth-first level from start, -1 if unreachable
    Flags final;  // accepting flags

    CsrView view() const { return {off_buf.data(), sym_buf.data(), dst_buf.data()}; }

    void load(int n_states, PyObject* t_off, PyObject* t_sym, PyObject* t_dst, PyObject* acc,
              int start_state, const Ints& dom) {
        off_buf.acquire(t_off, "t_off");
        sym_buf.acquire(t_sym, "t_sym");
        dst_buf.acquire(t_dst, "t_dst");
        acc_buf.acquire(acc, "acc");
        n = n_states;
        start = start_state;
        if (n < 0 || off_buf.size() != static_cast<Py_ssize_t>(n) + 1)
            throw BadInput("t_off has " + str(off_buf.size()) + " entries, expected n + 1 = " +
                           str(static_cast<long>(n) + 1));
        const Py_ssize_t edges = sym_buf.size();
        if (dst_buf.size() != edges)
            throw BadInput("t_sym has " + str(edges) + " entries but t_dst " + str(dst_buf.size()));
        if (off_buf[0] != 0) throw BadInput("t_off starts at " + str(off_buf[0]) + ", not 0");
        for (int s = 0; s < n; ++s) {
            if (off_buf[s + 1] < off_buf[s]) throw BadInput("t_off decreases at state " + str(s));
        }
        if (off_buf[n] != edges)
            throw BadInput("t_off ends at " + str(off_buf[n]) + ", not at " + str(edges) + " edges");
        for (Py_ssize_t j = 0; j < edges; ++j) {
            if (dst_buf[j] < 0 || dst_buf[j] >= n)
                throw BadInput("destination " + str(dst_buf[j]) + " outside 0.." + str(n - 1));
        }
        final.assign(n, 0);
        for (Py_ssize_t q = 0; q < acc_buf.size(); ++q) {
            if (acc_buf[q] < 0 || acc_buf[q] >= n)
                throw BadInput("accepting state " + str(acc_buf[q]) + " outside 0.." + str(n - 1));
            final[acc_buf[q]] = 1;
        }
        if (start < 0 || start >= n)
            throw BadInput("start state " + str(start) + " outside 0.." + str(n - 1));
        const CsrView g = view();
        lev = bfs_levels(g, n, start);
        const int L = static_cast<int>(dom.size());
        for (int s = 0; s < n; ++s) {
            if (lev[s] < 0 || g.off[s] == g.off[s + 1]) continue;
            if (lev[s] >= L)
                throw BadInput("state " + str(s) + ": edges beyond last level " + str(L));
            for (int v : g.syms(s)) {
                if (v != WILDCARD && (v < 0 || v >= dom[lev[s]]))
                    throw BadInput("state " + str(s) + ": symbol " + str(v) + " outside domain " +
                                   str(dom[lev[s]]) + " at level " + str(lev[s]));
            }
            for (int d : g.dsts(s)) {
                if (lev[d] != lev[s] + 1)
                    throw BadInput("edge " + str(s) + "->" + str(d) + " does not run from level " +
                                   str(lev[s]) + " to the next");
            }
        }
    }
};

PyObject* to_array(const Ints& v) {
    PyObject* out = PySequence_Repeat(int_array, static_cast<Py_ssize_t>(v.size()));
    if (!out || v.empty()) return out;
    Py_buffer view;
    if (PyObject_GetBuffer(out, &view, PyBUF_WRITABLE) < 0) {
        Py_DECREF(out);
        return nullptr;
    }
    std::memcpy(view.buf, v.data(), v.size() * sizeof(int));
    PyBuffer_Release(&view);
    return out;
}

// (t_off, t_sym, t_dst, acc, *counts) as a tuple of four arrays and ints.
PyObject* pack(const Parts& p, std::initializer_list<long> counts = {}) {
    PyObject* out = PyTuple_New(4 + static_cast<Py_ssize_t>(counts.size()));
    if (!out) throw PyFailure();
    Py_ssize_t i = 0;
    for (const Ints* part : {&p.off, &p.sym, &p.dst, &p.acc}) {
        PyObject* item = to_array(*part);
        if (!item) {
            Py_DECREF(out);
            throw PyFailure();
        }
        PyTuple_SET_ITEM(out, i++, item);
    }
    for (long c : counts) {
        PyObject* item = PyLong_FromLong(c);
        if (!item) {
            Py_DECREF(out);
            throw PyFailure();
        }
        PyTuple_SET_ITEM(out, i++, item);
    }
    return out;
}

// -- kernels -----------------------------------------------------------------

// Minimal DAFSA of n_strings strictly increasing rows of a flat buffer,
// by incremental register construction (see _kernels_py.compile_sorted).
Parts compile_sorted(const IntBuffer& dig, int n_strings, int length, const Ints& dom) {
    if (length == 0) return {{0, 0}, {}, {}, n_strings ? Ints{0} : Ints{}};
    if (n_strings == 0) return empty_parts();

    Lists g;
    g.sym.resize(2);
    g.dst.resize(2);
    const int FINAL = 1;  // shared sink for depth == length, never grows edges
    UniqueTable reg;
    Ints path{0}, sig;  // path[d] = state at depth d, the final sink excluded

    // collapse s's complete literal fan, then return its registered twin
    auto freeze = [&](int s, int depth) {
        if (complete_fan(g.sym[s], g.dst[s], dom[depth])) {
            g.sym[s].assign(1, WILDCARD);
            g.dst[s].resize(1);
        }
        sig.assign(1, depth);
        sig.insert(sig.end(), g.sym[s].begin(), g.sym[s].end());
        sig.insert(sig.end(), g.dst[s].begin(), g.dst[s].end());
        return reg.try_emplace(sig, s).first->second;
    };
    auto freeze_last = [&]() {
        const int child = path.back();
        path.pop_back();
        g.dst[path.back()].back() = freeze(child, static_cast<int>(path.size()));
    };

    for (Py_ssize_t i = 0; i < n_strings; ++i) {
        const Py_ssize_t base = i * length;
        int cpl = 0;
        if (i) {
            while (cpl < length && dig[base - length + cpl] == dig[base + cpl]) ++cpl;
        }
        while (static_cast<int>(path.size()) - 1 > cpl) freeze_last();
        for (int d = cpl; d < length; ++d) {
            const int parent = path.back();
            g.sym[parent].push_back(dig[base + d]);
            if (d == length - 1) {
                g.dst[parent].push_back(FINAL);
            } else {
                const int t = static_cast<int>(g.sym.size());
                g.sym.emplace_back();
                g.dst.emplace_back();
                g.dst[parent].push_back(t);
                path.push_back(t);
            }
        }
    }
    while (path.size() > 1) freeze_last();
    freeze(0, 0);

    Flags final(g.sym.size(), 0);
    final[FINAL] = 1;
    return renumber(g, static_cast<int>(g.sym.size()), final, 0);
}

PyObject* py_compile_sorted(PyObject* args) {
    PyObject *digits, *domains;
    int n_strings, length;
    if (!PyArg_ParseTuple(args, "OiiO:compile_sorted", &digits, &n_strings, &length, &domains))
        throw PyFailure();
    IntBuffer dig;
    dig.acquire(digits, "digits");
    const Ints dom = parse_domains(domains);
    if (n_strings < 0 || length < 0)
        throw BadInput("negative string count or length: " + str(n_strings) + ", " + str(length));
    if (static_cast<Py_ssize_t>(dom.size()) != length)
        throw BadInput(str(dom.size()) + " domains for strings of length " + str(length));
    if (dig.size() != static_cast<Py_ssize_t>(n_strings) * length)
        throw BadInput("digits holds " + str(dig.size()) + " ints, expected " + str(n_strings) +
                       " x " + str(length));
    for (Py_ssize_t i = 0; i < n_strings; ++i) {
        const Py_ssize_t base = i * length;
        for (int d = 0; d < length; ++d) {
            if (dig[base + d] < 0 || dig[base + d] >= dom[d])
                throw BadInput("string " + str(i) + ": symbol " + str(dig[base + d]) +
                               " outside domain " + str(dom[d]) + " at position " + str(d));
        }
        if (i && !std::lexicographical_compare(dig.data() + base - length, dig.data() + base,
                                               dig.data() + base, dig.data() + base + length))
            throw BadInput("string " + str(i) + " does not follow its predecessor in order");
    }
    return pack(compile_sorted(dig, n_strings, length, dom));
}

// One candidate edge of a product state: symbol and child pair.
struct Kid {
    int v, da, db;
    bool operator<(const Kid& o) const {
        return std::tie(v, da, db) < std::tie(o.v, o.da, o.db);
    }
};

// A state's edges as (wildcard destination or DEAD, literal edges).
struct Decoded {
    int wild;
    Span syms, dsts;
};

Decoded decode(const Automaton& x, int s) {
    const Span none{nullptr, nullptr};
    if (s == DEAD) return {DEAD, none, none};
    const CsrView g = x.view();
    Span syms = g.syms(s), dsts = g.dsts(s);
    if (syms.size() && syms[0] == WILDCARD) return {dsts[0], none, none};
    return {DEAD, syms, dsts};
}

// Lockstep pair construction: 0 = intersect, 1 = union, 2 = difference.
//
// Pairs are expanded depth first on an explicit stack, and Unique finishes
// each pair once its children are built, so the result is minimal as built.
Parts product(int mode, const Automaton& a, const Automaton& b, const Ints& dom) {
    const int L = static_cast<int>(dom.size());
    auto live = [mode](int da, int db) {
        return mode == 0 ? da != DEAD && db != DEAD : mode == 1 ? da != DEAD || db != DEAD : da != DEAD;
    };
    auto accepts = [&](int da, int db) {
        const bool fa = da != DEAD && a.final[da], fb = db != DEAD && b.final[db];
        return mode == 0 ? fa && fb : mode == 1 ? fa || fb : fa && !fb;
    };
    auto key = [](int da, int db) {
        return (static_cast<uint64_t>(static_cast<uint32_t>(da + 1)) << 32) |
               static_cast<uint32_t>(db + 1);
    };

    Unique out;
    std::unordered_map<uint64_t, int> built;  // pair -> result state, DEAD if empty
    std::vector<Kid> kids;                    // a stack: frames own nested ranges
    Ints expl;

    // kbeg < 0 until the pair's children are pushed above it; then its kids
    // are kids[kbeg, kend) until it is built
    struct Frame {
        int pa, pb, lv, kbeg, kend;
    };
    std::vector<Frame> stack{{a.start, b.start, 0, -1, -1}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        const uint64_t pair = key(f.pa, f.pb);
        if (f.kbeg < 0) {
            if (built.count(pair)) continue;
            if (f.lv == L) {
                built[pair] = accepts(f.pa, f.pb) ? 0 : DEAD;
                continue;
            }
            const Decoded da = decode(a, f.pa), db = decode(b, f.pb);
            const int kbeg = static_cast<int>(kids.size());
            if (da.syms.size() || db.syms.size()) {
                // merge the two sorted literal lists; a symbol one side does
                // not name follows that side's wildcard
                expl.clear();
                size_t i = 0, j = 0;
                while (i < da.syms.size() || j < db.syms.size()) {
                    Kid kid;
                    if (j == db.syms.size() || (i < da.syms.size() && da.syms[i] < db.syms[j])) {
                        kid = {da.syms[i], da.dsts[i], db.wild};
                        ++i;
                    } else if (i == da.syms.size() || db.syms[j] < da.syms[i]) {
                        kid = {db.syms[j], da.wild, db.dsts[j]};
                        ++j;
                    } else {
                        kid = {da.syms[i], da.dsts[i], db.dsts[j]};
                        ++i;
                        ++j;
                    }
                    expl.push_back(kid.v);
                    if (live(kid.da, kid.db)) kids.push_back(kid);
                }
                const int k = dom[f.lv];
                if (static_cast<int>(expl.size()) < k && live(da.wild, db.wild)) {
                    // symbols neither side names follow both wildcards
                    size_t scan = 0;
                    for (int v = 0; v < k; ++v) {
                        while (scan < expl.size() && expl[scan] < v) ++scan;
                        if (scan < expl.size() && expl[scan] == v) continue;
                        kids.push_back({v, da.wild, db.wild});
                    }
                    std::sort(kids.begin() + kbeg, kids.end());
                }
            } else if (live(da.wild, db.wild)) {
                kids.push_back({WILDCARD, da.wild, db.wild});
            }
            const int kend = static_cast<int>(kids.size());
            stack.push_back({f.pa, f.pb, f.lv, kbeg, kend});
            for (int q = kbeg; q < kend; ++q) {
                const Kid& kid = kids[q];
                if (!built.count(key(kid.da, kid.db)))
                    stack.push_back({kid.da, kid.db, f.lv + 1, -1, -1});
            }
            continue;
        }

        const int state = out.finish(f.lv, dom[f.lv], kids.begin() + f.kbeg, kids.begin() + f.kend,
                                     [&](const Kid& q) { return built.at(key(q.da, q.db)); });
        kids.resize(f.kbeg);
        built[pair] = state;
    }
    return out.parts(built[key(a.start, b.start)]);
}

PyObject* py_product(PyObject* args) {
    int mode, na, starta, nb, startb;
    PyObject *offa, *syma, *dsta, *acca, *offb, *symb, *dstb, *accb, *domains;
    if (!PyArg_ParseTuple(args, "iiOOOOiiOOOOiO:product", &mode, &na, &offa, &syma, &dsta, &acca,
                          &starta, &nb, &offb, &symb, &dstb, &accb, &startb, &domains))
        throw PyFailure();
    if (mode < 0 || mode > 2) throw BadInput("product mode " + str(mode) + " is not 0, 1 or 2");
    const Ints dom = parse_domains(domains);
    Automaton a, b;
    a.load(na, offa, syma, dsta, acca, starta, dom);
    b.load(nb, offb, symb, dstb, accb, startb, dom);
    return pack(product(mode, a, b, dom));
}

// One candidate edge of a subset: symbol and child subset.
struct SubsetKid {
    int v, sub;
    bool operator<(const SubsetKid& o) const { return v < o.v; }
};

// Depth-first subset construction that builds its result minimal, as
// _kernels_py._walk: subsets are expanded as product expands pairs and
// finished by Unique.  edges(s, lv, add) calls add(symbol, destination)
// for each edge of member s on level lv (duplicates and wildcards beside
// literals allowed), accepting(s) tells whether a member on the last level
// accepts.  Sets n_subsets to the number of distinct subsets
// reachable from {start}, including those with an empty language.
template <class EdgesOf, class Accepting>
Parts walk(const Ints& dom, int start, const EdgesOf& edges, const Accepting& accepting,
           int& n_subsets) {
    const int L = static_cast<int>(dom.size());
    constexpr int UNBUILT = -2;
    Ints soff{0}, smem;  // members of subset i are smem[soff[i], soff[i + 1])
    Ints built;          // subset -> result state, DEAD if empty, UNBUILT
    UniqueTable sub2id;
    auto subset = [&](const Ints& members) {
        const auto hit = sub2id.try_emplace(members, static_cast<int>(built.size()));
        if (hit.second) {
            smem.insert(smem.end(), members.begin(), members.end());
            soff.push_back(static_cast<int>(smem.size()));
            built.push_back(UNBUILT);
        }
        return hit.first->second;
    };

    Unique out;
    std::vector<SubsetKid> kids;  // a stack: frames own nested ranges
    Ints wild, members;
    std::vector<std::pair<int, int>> lits;
    // kbeg < 0 until the subset's children are pushed above it; then its
    // kids are kids[kbeg, kend) until it is built
    struct Frame {
        int sub, lv, kbeg, kend;
    };
    std::vector<Frame> stack{{subset(Ints{start}), 0, -1, -1}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.kbeg >= 0) {
            built[f.sub] = out.finish(f.lv, dom[f.lv], kids.begin() + f.kbeg, kids.begin() + f.kend,
                                      [&](const SubsetKid& q) { return built[q.sub]; });
            kids.resize(f.kbeg);
            continue;
        }
        if (built[f.sub] != UNBUILT) continue;
        if (f.lv == L) {
            bool acc = false;
            for (int p = soff[f.sub]; p < soff[f.sub + 1] && !acc; ++p) acc = accepting(smem[p]);
            built[f.sub] = acc ? 0 : DEAD;
            continue;
        }
        wild.clear();
        lits.clear();
        auto add = [&](int v, int d) {
            if (v == WILDCARD)
                wild.push_back(d);
            else
                lits.emplace_back(v, d);
        };
        for (int p = soff[f.sub]; p < soff[f.sub + 1]; ++p) edges(smem[p], f.lv, add);
        sort_unique(wild);
        sort_unique(lits);

        const int kbeg = static_cast<int>(kids.size());
        for (size_t q = 0; q < lits.size();) {
            const int v = lits[q].first;
            members.assign(wild.begin(), wild.end());
            for (; q < lits.size() && lits[q].first == v; ++q) members.push_back(lits[q].second);
            sort_unique(members);
            kids.push_back({v, subset(members)});
        }
        const int k = dom[f.lv], kexpl = static_cast<int>(kids.size());
        if (!wild.empty() && kexpl - kbeg < k) {
            const int rest = subset(wild);
            if (kexpl == kbeg) {
                kids.push_back({WILDCARD, rest});
            } else {
                // symbols no member names follow the wildcards
                int scan = kbeg;
                for (int v = 0; v < k; ++v) {
                    while (scan < kexpl && kids[scan].v < v) ++scan;
                    if (scan < kexpl && kids[scan].v == v) continue;
                    kids.push_back({v, rest});
                }
                std::sort(kids.begin() + kbeg, kids.end());
            }
        }
        const int kend = static_cast<int>(kids.size());
        stack.push_back({f.sub, f.lv, kbeg, kend});
        for (int q = kbeg; q < kend; ++q) {
            if (built[kids[q].sub] == UNBUILT) stack.push_back({kids[q].sub, f.lv + 1, -1, -1});
        }
    }
    n_subsets = static_cast<int>(built.size());
    return out.parts(built[0]);
}

// determinize and minimize: the walk over the input's own edges (a DFA is
// an NFA whose subsets are singletons).
PyObject* walk_own_edges(PyObject* args, const char* format, bool with_count) {
    int n, start;
    PyObject *t_off, *t_sym, *t_dst, *acc, *domains;
    if (!PyArg_ParseTuple(args, format, &n, &t_off, &t_sym, &t_dst, &acc, &start, &domains))
        throw PyFailure();
    const Ints dom = parse_domains(domains);
    Automaton a;
    a.load(n, t_off, t_sym, t_dst, acc, start, dom);
    const CsrView g = a.view();
    int n_subsets = 0;
    const Parts p = walk(
        dom, a.start, [&](int s, int, auto& add) { each_edge(g, s, add); },
        [&](int s) { return a.final[s] != 0; }, n_subsets);
    return with_count ? pack(p, {n_subsets}) : pack(p);
}

PyObject* py_determinize(PyObject* args) {
    return walk_own_edges(args, "iOOOOiO:determinize", true);
}

PyObject* py_minimize(PyObject* args) { return walk_own_edges(args, "iOOOOiO:minimize", false); }

// Project out level lvl: each level-lvl state takes the merged edges of its
// successors (nondeterministic in general), read by the walk on the fly.
PyObject* py_remove_level(PyObject* args) {
    int n, start, lvl;
    PyObject *t_off, *t_sym, *t_dst, *acc, *domains;
    if (!PyArg_ParseTuple(args, "iOOOOiOi:remove_level", &n, &t_off, &t_sym, &t_dst, &acc,
                          &start, &domains, &lvl))
        throw PyFailure();
    const Ints dom = parse_domains(domains);
    const int L = static_cast<int>(dom.size());
    if (lvl < 0 || lvl >= L) throw BadInput("level " + str(lvl) + " outside 0.." + str(L - 1));
    Automaton a;
    a.load(n, t_off, t_sym, t_dst, acc, start, dom);
    const CsrView g = a.view();

    // the contracted edges of a level-lvl state, merged when first read
    std::vector<std::vector<std::pair<int, int>>> merged(n);
    Flags done(n, 0);
    auto edges = [&](int s, int lv, auto& add) {
        if (lv != lvl) return each_edge(g, s, add);
        if (!done[s]) {
            auto keep = [&](int v, int d) { merged[s].emplace_back(v, d); };
            for (int t : g.dsts(s)) each_edge(g, t, keep);
            sort_unique(merged[s]);
            done[s] = 1;
        }
        for (const auto& e : merged[s]) add(e.first, e.second);
    };
    // on the new last level, contracted states accept through an accepting
    // successor
    auto accepting = [&](int s) {
        if (lvl < L - 1) return a.final[s] != 0;
        for (int t : g.dsts(s)) {
            if (a.final[t]) return true;
        }
        return false;
    };

    int nfa_states = 0;
    for (int s = 0; s < n; ++s) nfa_states += a.lev[s] >= 0 && a.lev[s] != lvl + 1;
    Ints new_dom(dom);
    new_dom.erase(new_dom.begin() + lvl);
    int n_subsets = 0;
    const Parts p = walk(new_dom, a.start, edges, accepting, n_subsets);
    return pack(p, {nfa_states, n_subsets});
}

PyObject* py_empty_parts(PyObject*) { return pack(empty_parts()); }

// Every kernel entry point: C++ exceptions become Python exceptions here.
template <PyObject* (*Kernel)(PyObject*)>
PyObject* guarded(PyObject*, PyObject* args) {
    try {
        return Kernel(args);
    } catch (const BadInput& exc) {
        PyErr_SetString(automaton_error, exc.what());
    } catch (const PyFailure&) {
    } catch (const std::bad_alloc&) {
        PyErr_NoMemory();
    } catch (const std::length_error&) {
        PyErr_NoMemory();
    } catch (const std::exception& exc) {
        PyErr_SetString(PyExc_RuntimeError, exc.what());
    }
    return nullptr;
}

PyMethodDef methods[] = {
    {"_empty_parts", guarded<py_empty_parts>, METH_NOARGS,
     "_empty_parts() -> canonical empty language: a lone non-accepting start state"},
    {"minimize", guarded<py_minimize>, METH_VARARGS,
     "minimize(n, t_off, t_sym, t_dst, acc, start, domains) -> parts"},
    {"compile_sorted", guarded<py_compile_sorted>, METH_VARARGS,
     "compile_sorted(digits, n_strings, length, domains) -> parts"},
    {"product", guarded<py_product>, METH_VARARGS,
     "product(mode, n_a, ..., start_a, n_b, ..., start_b, domains) -> parts;"
     " mode 0 = intersect, 1 = union, 2 = difference"},
    {"determinize", guarded<py_determinize>, METH_VARARGS,
     "determinize(n, t_off, t_sym, t_dst, acc, start, domains) -> parts + (raw_states,)"},
    {"remove_level", guarded<py_remove_level>, METH_VARARGS,
     "remove_level(n, t_off, t_sym, t_dst, acc, start, domains, lvl)"
     " -> parts + (nfa_states, raw_states)"},
    {nullptr, nullptr, 0, nullptr},
};

PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    "_kernels_cc",                                                                          // m_name
    "Flat-array kernels for leveled-DAFSA algebra, compiled edition of dafbe._kernels_py.",  // m_doc
    -1,                                                                                     // m_size
    methods,                                                                                // m_methods
    nullptr,                                                                                // m_slots
    nullptr,                                                                                // m_traverse
    nullptr,                                                                                // m_clear
    nullptr,                                                                                // m_free
};

}  // namespace

PyMODINIT_FUNC PyInit__kernels_cc() {
    PyObject* errors = PyImport_ImportModule("dafbe.errors");
    if (!errors) return nullptr;
    automaton_error = PyObject_GetAttrString(errors, "AutomatonError");
    Py_DECREF(errors);
    if (!automaton_error) return nullptr;
    PyObject* array_mod = PyImport_ImportModule("array");
    if (!array_mod) return nullptr;
    int_array = PyObject_CallMethod(array_mod, "array", "s[i]", "i", 0);
    Py_DECREF(array_mod);
    if (!int_array) return nullptr;
    PyObject* m = PyModule_Create(&module_def);
    if (m && PyModule_AddIntConstant(m, "WILDCARD", WILDCARD) < 0) Py_CLEAR(m);
    return m;
}
