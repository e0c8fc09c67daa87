// Flat-array kernels for leveled-DAFSA algebra, compiled edition.
//
// A hand-written C++17 twin of ``_kernels_py``: the same kernels under the
// same names and positional signatures, returning byte-identical canonical
// parts (see that module for the representation contract, for a factor's
// shared multi-terminal form and for the four kernels that work on it).
// Arrays are read through the buffer protocol and must have format 'i';
// results are array('i').
//
// Unlike the Python edition, every kernel checks its inputs before it
// reads them: CSR shape, state ids, each reachable state's symbols against
// the domain of its breadth-first level, and that each of its edges runs
// to the next level, for every automaton, entry and shared form (Graph);
// the accepting ids of an automaton or entry (Automaton); a shared form's
// terms, one per state, a label or -1, terminals without edges on the
// last level and no other leaf but an empty function's root (Diagram);
// and the lengths of the level flags and labels of combine_entries and
// the level it removes.  A violation raises dafbe.errors.AutomatonError,
// and running out of memory raises MemoryError, so no input can crash the
// interpreter.
//
// Every kernel builds its result minimal as it goes, with no merge pass.
// compile_sorted does so through its register.  Every other kernel is one
// depth-first walk (walk) whose leaves carry a label or none; it finishes
// each node once its children are built, through one of two finishers:
// SharedWalked interns one state per node and builds a shared form,
// Walked interns one state per label below the node in a unique table
// shared by all labels (Unique), so each label's automaton is read off
// canonically at the end.  product walks pairs of states; determinize,
// minimize and remove_level walk subsets of states (Subsets); join walks
// subsets of entries side by side and split a shared form's own states;
// project_entries walks subsets of one shared form and combine_entries
// pairs of states, one per operand (PairWalk).  With lvl >= 0
// combine_entries removes that union level in the same walk: a node below
// it is an interned set of pairs (sets of pair ids, as Subsets interns
// sets of states), stepped member by member, and a leaf takes the lowest
// label of its pairs, so a bucket's combined factor is never built.
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
constexpr int DEAD = -1;  // no state or subset: an empty language
constexpr int NO_LABEL = -1;

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

// Canonical BFS renumbering from root into p.off / p.sym / p.dst; order
// gets the old ids in their new order.  Per-state edges must be
// symbol-sorted.  old2new must hold -1 for every state; the caller reads
// the entries this call sets, then resets them (reset).
template <class G>
void renumber(const G& g, int root, Ints& old2new, Ints& order, Parts& p) {
    order.assign(1, root);
    old2new[root] = 0;
    for (size_t head = 0; head < order.size(); ++head) {
        for (int d : g.dsts(order[head])) {
            if (old2new[d] < 0) {
                old2new[d] = static_cast<int>(order.size());
                order.push_back(d);
            }
        }
    }
    p.off.reserve(order.size() + 1);
    p.off.push_back(0);
    for (int s : order) {
        Span syms = g.syms(s);
        p.sym.insert(p.sym.end(), syms.begin(), syms.end());
        for (int d : g.dsts(s)) p.dst.push_back(old2new[d]);
        p.off.push_back(static_cast<int>(p.sym.size()));
    }
}

void reset(Ints& old2new, const Ints& order) {
    for (int s : order) old2new[s] = -1;
}

// The canonical parts from root of an automaton whose one accepting state
// is final_state; old2new as for renumber.
template <class G>
Parts accepting_parts(const G& g, int final_state, int root, Ints& old2new) {
    Ints order;
    Parts p;
    renumber(g, root, old2new, order, p);
    if (old2new[final_state] >= 0) p.acc.push_back(old2new[final_state]);
    reset(old2new, order);
    return p;
}

// A complete literal fan (symbols 0..k-1) onto one successor.
bool complete_fan(const Ints& syms, const Ints& dsts, int k) {
    if (k <= 0 || syms.size() != static_cast<size_t>(k) || syms.front() != 0 || syms.back() != k - 1)
        return false;
    return std::all_of(dsts.begin(), dsts.end(), [&](int d) { return d == dsts[0]; });
}

// Result states, built children first and interned in a unique table
// keyed by (level, symbols, destinations), as in _kernels_py: equal right
// languages share one state.  Leaves, which have no edges, are added
// apart from the table.
struct Unique {
    Csr res;
    UniqueTable table;
    Ints sig;

    int add_leaf() {
        res.off.push_back(res.off.back());
        return res.size() - 1;
    }

    // The state with edges syms -> dsts (nonempty, symbol-sorted) on level
    // lv; a complete literal fan onto one child becomes a wildcard.
    int intern(int lv, int k, Ints& syms, Ints& dsts) {
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
};

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

// Owns one reference; a null one means a Python exception is set.
struct Ref {
    PyObject* p;
    explicit Ref(PyObject* obj) : p(obj) {
        if (!p) throw PyFailure();
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { Py_XDECREF(p); }
    PyObject* release() {
        PyObject* obj = p;
        p = nullptr;
        return obj;
    }
};

// The items of a sequence argument, each an int in [lo, hi].
Ints parse_ints(PyObject* obj, const char* name, long lo, long hi) {
    Ref seq(PySequence_Fast(obj, "expected a sequence of ints"));
    Ints out;
    const Py_ssize_t size = PySequence_Fast_GET_SIZE(seq.p);
    for (Py_ssize_t i = 0; i < size; ++i) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq.p, i));
        if (v == -1 && PyErr_Occurred()) throw PyFailure();
        if (v < lo || v > hi)
            throw BadInput(std::string(name) + " item " + str(i) + " is " + str(v) + ", outside " +
                           str(lo) + ".." + str(hi));
        out.push_back(static_cast<int>(v));
    }
    return out;
}

Ints parse_domains(PyObject* obj) { return parse_ints(obj, "domains", 0, INT32_MAX); }

// Borrowed CSR arrays (t_off, t_sym, t_dst), checked against the
// flat-automaton contract before anything else reads them.
struct Graph {
    IntBuffer off_buf, sym_buf, dst_buf;
    int n = 0, start = 0;
    Ints lev;  // breadth-first level from start, -1 if unreachable

    CsrView view() const { return {off_buf.data(), sym_buf.data(), dst_buf.data()}; }

  protected:
    void acquire(PyObject* t_off, PyObject* t_sym, PyObject* t_dst) {
        off_buf.acquire(t_off, "t_off");
        sym_buf.acquire(t_sym, "t_sym");
        dst_buf.acquire(t_dst, "t_dst");
    }

    // The items of seq, a parts argument as a fast sequence: four arrays.
    static PyObject** items(const Ref& seq, const char* what, const char* names) {
        if (PySequence_Fast_GET_SIZE(seq.p) != 4)
            throw BadInput(std::string(what) + " has " + str(PySequence_Fast_GET_SIZE(seq.p)) +
                           " parts, not " + names);
        return PySequence_Fast_ITEMS(seq.p);
    }

    // The CSR shape, the state ids, and for each state start reaches, its
    // symbols against the domain of its level and that its edges run to
    // the next level.
    void check(int n_states, int start_state, const Ints& dom) {
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

    // check, for parts rooted at state 0 whose t_off gives the state count
    void check_rooted(const Ints& dom) {
        if (off_buf.size() > INT32_MAX) throw BadInput("t_off is too long");
        check(static_cast<int>(off_buf.size()) - 1, 0, dom);
    }
};

// One automaton argument, (n, t_off, t_sym, t_dst, acc, start) or an
// entry's parts (t_off, t_sym, t_dst, acc) with start 0.
struct Automaton : Graph {
    IntBuffer acc_buf;
    Flags final;  // accepting flags

    void load(int n_states, PyObject* t_off, PyObject* t_sym, PyObject* t_dst, PyObject* acc,
              int start_state, const Ints& dom) {
        acquire(t_off, t_sym, t_dst);
        acc_buf.acquire(acc, "acc");
        check(n_states, start_state, dom);
        check_acc();
    }

    void load_entry(PyObject* entry, const Ints& dom) {
        Ref seq(PySequence_Fast(entry, "an entry must be a sequence of four arrays"));
        PyObject** item = items(seq, "an entry", "(t_off, t_sym, t_dst, acc)");
        acquire(item[0], item[1], item[2]);
        acc_buf.acquire(item[3], "acc");
        check_rooted(dom);
        check_acc();
    }

    // the label of each state: label if accepting, else NO_LABEL
    Ints owners(int label) const {
        Ints out(n, NO_LABEL);
        for (int s = 0; s < n; ++s) {
            if (final[s]) out[s] = label;
        }
        return out;
    }

  private:
    void check_acc() {
        final.assign(n, 0);
        for (Py_ssize_t q = 0; q < acc_buf.size(); ++q) {
            if (acc_buf[q] < 0 || acc_buf[q] >= n)
                throw BadInput("accepting state " + str(acc_buf[q]) + " outside 0.." + str(n - 1));
            final[acc_buf[q]] = 1;
        }
    }
};

// A factor's shared form (t_off, t_sym, t_dst, term), rooted at state 0.
// Beyond the automaton checks: term holds a label (>= 0) or -1 for each
// state; a terminal the root reaches sits on the last level, so it has no
// edges; no other state the root reaches lacks edges, except the root of
// the empty function.
struct Diagram : Graph {
    IntBuffer term_buf;
    long labels = 0;  // one more than the largest label

    int term(int s) const { return term_buf[s]; }

    void load(PyObject* shared, const Ints& dom) {
        Ref seq(PySequence_Fast(shared, "a shared form must be a sequence of four arrays"));
        PyObject** item = items(seq, "a shared form", "(t_off, t_sym, t_dst, term)");
        acquire(item[0], item[1], item[2]);
        term_buf.acquire(item[3], "term");
        check_rooted(dom);
        if (term_buf.size() != n)
            throw BadInput("term has " + str(term_buf.size()) + " entries for " + str(n) + " states");
        const CsrView g = view();
        const int L = static_cast<int>(dom.size());
        for (int s = 0; s < n; ++s) {
            const int t = term_buf[s];
            const bool leaf = g.off[s] == g.off[s + 1];
            if (t < -1) throw BadInput("state " + str(s) + ": label " + str(t) + " below -1");
            if (t >= 0) {  // with edges, it is off the last level or has edges beyond it
                if (lev[s] >= 0 && lev[s] != L)
                    throw BadInput("terminal state " + str(s) + " on level " + str(lev[s]) +
                                   ", not on the last level " + str(L));
                labels = std::max(labels, static_cast<long>(t) + 1);
            } else if (leaf && lev[s] >= 0 && s != 0) {
                throw BadInput("state " + str(s) + " has no edges and no label");
            }
        }
    }

    // the label of each state, NO_LABEL for non-terminals
    Ints owners() const { return Ints(term_buf.data(), term_buf.data() + n); }
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
    Ref out(PyTuple_New(4 + static_cast<Py_ssize_t>(counts.size())));
    Py_ssize_t i = 0;
    for (const Ints* part : {&p.off, &p.sym, &p.dst, &p.acc}) {
        PyTuple_SET_ITEM(out.p, i++, Ref(to_array(*part)).release());
    }
    for (long c : counts) PyTuple_SET_ITEM(out.p, i++, Ref(PyLong_FromLong(c)).release());
    return out.release();
}

// -- the walk ----------------------------------------------------------------

// One candidate edge of a node: symbol and child node.
struct Kid {
    int v, node;
    bool operator<(const Kid& o) const { return v < o.v; }
};

// A finished node's state for one label.
struct Labeled {
    int label, state;
};

// The per-label finisher, as _kernels_py._Unique: each node gets one
// state per label found below it, its (label, state) pairs kept at
// pool[beg[node], end[node]), labels ascending.  One unique table serves
// every label, so every label's automaton is minimal as built.  State 0
// is the accepting sink.
struct Walked {
    static constexpr int UNBUILT = -1;
    Unique out;
    std::vector<Labeled> pool;
    Ints beg, end;

    Walked() { out.add_leaf(); }

    bool built(int node) const { return node < static_cast<int>(beg.size()) && beg[node] != UNBUILT; }
    int nodes() const { return static_cast<int>(beg.size() - std::count(beg.begin(), beg.end(), UNBUILT)); }

    void leaf(int node, int label) {
        const int b = static_cast<int>(pool.size());
        if (label != NO_LABEL) pool.push_back({label, 0});
        set(node, b);
    }

    // for each label found below kids[kbeg, kend), the kids whose child
    // has that label become one interned state
    void finish(int node, int lv, int k, const std::vector<Kid>& kids, int kbeg, int kend) {
        found_.clear();
        for (int q = kbeg; q < kend; ++q) {
            const int c = kids[q].node;
            for (int p = beg[c]; p < end[c]; ++p) found_.push_back({pool[p].label, kids[q].v, pool[p].state});
        }
        std::sort(found_.begin(), found_.end());
        const int b = static_cast<int>(pool.size());
        for (size_t i = 0; i < found_.size();) {
            const int label = found_[i].label;
            syms_.clear();
            dsts_.clear();
            for (; i < found_.size() && found_[i].label == label; ++i) {
                syms_.push_back(found_[i].v);
                dsts_.push_back(found_[i].state);
            }
            pool.push_back({label, out.intern(lv, k, syms_, dsts_)});
        }
        set(node, b);
    }

    // Canonical flat parts of the automaton rooted at state root.
    Parts parts(int root) {
        if (root == DEAD) return empty_parts();
        old2new_.resize(out.res.size(), -1);
        return accepting_parts(out.res.view(), 0, root, old2new_);
    }

    // the automaton of label 0 below node, the result of the one-label kernels
    Parts single(int node) { return parts(end[node] > beg[node] ? pool[beg[node]].state : DEAD); }

  private:
    struct Found {
        int label, v, state;
        bool operator<(const Found& o) const { return std::tie(label, v) < std::tie(o.label, o.v); }
    };
    std::vector<Found> found_;
    Ints syms_, dsts_, old2new_;

    void set(int node, int b) {
        if (node >= static_cast<int>(beg.size())) {
            beg.resize(node + 1, UNBUILT);
            end.resize(node + 1, UNBUILT);
        }
        beg[node] = b;
        end[node] = static_cast<int>(pool.size());
    }
};

// The shared finisher, as _kernels_py._Shared: each node gets one state,
// or DEAD if it has no string.  A node past the last level becomes the
// terminal of its label, one per label; any other node keeps its kids
// whose child is not DEAD and is interned.
struct SharedWalked {
    static constexpr int UNBUILT = -2;
    Unique out;
    Ints state;                              // per node
    std::unordered_map<int, int> terminals;  // label -> state

    bool built(int node) const { return node < static_cast<int>(state.size()) && state[node] != UNBUILT; }
    int nodes() const { return static_cast<int>(state.size() - std::count(state.begin(), state.end(), UNBUILT)); }

    void leaf(int node, int label) {
        int s = DEAD;
        if (label != NO_LABEL) {
            const auto hit = terminals.try_emplace(label, 0);
            if (hit.second) hit.first->second = out.add_leaf();
            s = hit.first->second;
        }
        set(node, s);
    }

    void finish(int node, int lv, int k, const std::vector<Kid>& kids, int kbeg, int kend) {
        syms_.clear();
        dsts_.clear();
        for (int q = kbeg; q < kend; ++q) {
            const int d = state[kids[q].node];
            if (d == DEAD) continue;
            syms_.push_back(kids[q].v);
            dsts_.push_back(d);
        }
        set(node, syms_.empty() ? DEAD : out.intern(lv, k, syms_, dsts_));
    }

    // (parts, labels) of the shared form below node: term renumbers each
    // terminal's label into labels, ascending
    PyObject* result(int node) const {
        const int root = state[node];
        Parts p{{0, 0}, {}, {}, {-1}};
        Ints labels;
        if (root != DEAD) {
            p = Parts{};
            Ints old2new(out.res.size(), -1), order;
            renumber(out.res.view(), root, old2new, order, p);
            std::vector<std::pair<int, int>> found;  // (label, new id)
            for (const auto& t : terminals) {
                if (old2new[t.second] >= 0) found.emplace_back(t.first, old2new[t.second]);
            }
            std::sort(found.begin(), found.end());
            p.acc.assign(order.size(), -1);
            for (size_t r = 0; r < found.size(); ++r) {
                p.acc[found[r].second] = static_cast<int>(r);
                labels.push_back(found[r].first);
            }
        }
        Ref parts(pack(p));
        Ref list(PyList_New(static_cast<Py_ssize_t>(labels.size())));
        for (size_t r = 0; r < labels.size(); ++r)
            PyList_SET_ITEM(list.p, static_cast<Py_ssize_t>(r), Ref(PyLong_FromLong(labels[r])).release());
        return Ref(PyTuple_Pack(2, parts.p, list.p)).release();
    }

  private:
    Ints syms_, dsts_;

    void set(int node, int s) {
        if (node >= static_cast<int>(state.size())) state.resize(node + 1, UNBUILT);
        state[node] = s;
    }
};

// The depth-first walk behind every kernel but compile_sorted, as
// _kernels_py._walk.  Nodes are ints >= 0 that expand hands out:
// expand(node, lv, kids) appends the node's kids on level lv, symbols
// ascending and a wildcard only alone; label_of(node) gives the label
// (>= 0) of a node past the last level, or NO_LABEL.  Nodes are expanded
// on an explicit stack, and the finisher w builds a node once its
// children are built (Walked or SharedWalked).
template <class Finisher, class Expand, class LabelOf>
void walk(const Ints& dom, int root, const Expand& expand, const LabelOf& label_of, Finisher& w) {
    const int L = static_cast<int>(dom.size());
    std::vector<Kid> kids;  // a stack: frames own nested ranges
    // kbeg < 0 until the node's children are pushed above it; then its
    // kids are kids[kbeg, kend) until it is built
    struct Frame {
        int node, lv, kbeg, kend;
    };
    std::vector<Frame> stack{{root, 0, -1, -1}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.kbeg >= 0) {
            w.finish(f.node, f.lv, dom[f.lv], kids, f.kbeg, f.kend);
            kids.resize(f.kbeg);
            continue;
        }
        if (w.built(f.node)) continue;
        if (f.lv == L) {
            w.leaf(f.node, label_of(f.node));
            continue;
        }
        const int kbeg = static_cast<int>(kids.size());
        expand(f.node, f.lv, kids);
        const int kend = static_cast<int>(kids.size());
        stack.push_back({f.node, f.lv, kbeg, kend});
        for (int q = kbeg; q < kend; ++q) {
            if (!w.built(kids[q].node)) stack.push_back({kids[q].node, f.lv + 1, -1, -1});
        }
    }
}


// Pairs of ids (DEAD allowed), interned as dense node ids.
struct Pairs {
    std::unordered_map<uint64_t, int> ids;
    Ints first, second;
    int operator()(int a, int b) {
        const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a + 1)) << 32) |
                             static_cast<uint32_t>(b + 1);
        const auto hit = ids.try_emplace(key, static_cast<int>(first.size()));
        if (hit.second) {
            first.push_back(a);
            second.push_back(b);
        }
        return hit.first->second;
    }
};

// A node's edges as (wildcard child or DEAD, literal symbols and children).
struct Decoded {
    int wild;
    Span syms, dsts;
};

constexpr Span NONE{nullptr, nullptr};

// The kids of a pair node, appended to kids: a symbol one side does not
// name follows that side's wildcard, and a child pair is kept if live
// says so.  k is the level's domain size.
template <class Live>
void merge(int k, const Decoded& a, const Decoded& b, const Live& live, Pairs& pairs,
           std::vector<Kid>& kids) {
    const size_t na = a.syms.size(), nb = b.syms.size();
    if (!na && !nb) {
        if (live(a.wild, b.wild)) kids.push_back({WILDCARD, pairs(a.wild, b.wild)});
        return;
    }
    const size_t kbeg = kids.size();
    int named = 0;
    size_t i = 0, j = 0;
    while (i < na || j < nb) {
        int v, da, db;
        if (j == nb || (i < na && a.syms[i] < b.syms[j])) {
            v = a.syms[i];
            da = a.dsts[i++];
            db = b.wild;
        } else if (i == na || b.syms[j] < a.syms[i]) {
            v = b.syms[j];
            da = a.wild;
            db = b.dsts[j++];
        } else {
            v = a.syms[i];
            da = a.dsts[i++];
            db = b.dsts[j++];
        }
        ++named;
        if (live(da, db)) kids.push_back({v, pairs(da, db)});
    }
    if (named < k && live(a.wild, b.wild)) {
        // symbols neither side names follow both wildcards
        const int rest = pairs(a.wild, b.wild);
        i = j = 0;
        for (int v = 0; v < k; ++v) {
            while (i < na && a.syms[i] < v) ++i;
            while (j < nb && b.syms[j] < v) ++j;
            if ((i < na && a.syms[i] == v) || (j < nb && b.syms[j] == v)) continue;
            kids.push_back({v, rest});
        }
        std::sort(kids.begin() + kbeg, kids.end());
    }
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

    Ints old2new(g.sym.size(), -1);
    return accepting_parts(g, FINAL, 0, old2new);
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


Decoded decode(const CsrView& g, int s) {
    if (s == DEAD) return {DEAD, NONE, NONE};
    Span syms = g.syms(s), dsts = g.dsts(s);
    if (syms.size() && syms[0] == WILDCARD) return {dsts[0], NONE, NONE};
    return {DEAD, syms, dsts};
}

// Lockstep pair construction: 0 = intersect, 1 = union, 2 = difference.
// The walk over pairs of states, with one label; a missing state on one
// side is DEAD, so union and difference keep walking the live side.
Parts product(int mode, const Automaton& a, const Automaton& b, const Ints& dom) {
    auto live = [mode](int da, int db) {
        return mode == 0 ? da != DEAD && db != DEAD : mode == 1 ? da != DEAD || db != DEAD : da != DEAD;
    };
    Pairs pairs;
    const CsrView ga = a.view(), gb = b.view();
    auto expand = [&](int node, int lv, std::vector<Kid>& kids) {
        merge(dom[lv], decode(ga, pairs.first[node]), decode(gb, pairs.second[node]), live, pairs, kids);
    };
    auto label_of = [&](int node) {
        const int pa = pairs.first[node], pb = pairs.second[node];
        const bool fa = pa != DEAD && a.final[pa], fb = pb != DEAD && b.final[pb];
        return (mode == 0 ? fa && fb : mode == 1 ? fa || fb : fa && !fb) ? 0 : NO_LABEL;
    };
    Walked w;
    const int root = pairs(a.start, b.start);
    walk(dom, root, expand, label_of, w);
    return w.single(root);
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

// Subsets of the states of one or more automata side by side, stepped
// level by level, as _kernels_py._Subsets.  add puts each automaton's
// states after the ones before, owner[s] the label of state s or
// NO_LABEL; a subset past the last level takes its members' lowest
// label.  With lvl >= 0 that level is contracted on the fly: a state there
// takes the merged edges of its successors, and if lvl is the last of the
// walk's levels it accepts through an accepting successor.
class Subsets {
  public:
    Subsets(int levels, int lvl) : levels_(levels), lvl_(lvl) {}

    // an automaton g of n states from start, owners[s] the label of state s
    void add(const CsrView& g, int n, int start, const Ints& owners) {
        const int base = g_.size();
        for (int s = 0; s < n; ++s) {
            g_.sym.insert(g_.sym.end(), g.syms(s).begin(), g.syms(s).end());
            for (int d : g.dsts(s)) g_.dst.push_back(base + d);
            g_.off.push_back(static_cast<int>(g_.sym.size()));
        }
        owner_.insert(owner_.end(), owners.begin(), owners.end());
        roots_.push_back(base + start);
    }

    // the subset of every automaton's start state
    int root() { return intern(roots_); }

    int intern(const Ints& members) {
        const auto hit = ids_.try_emplace(members, static_cast<int>(soff_.size()) - 1);
        if (hit.second) {
            smem_.insert(smem_.end(), members.begin(), members.end());
            soff_.push_back(static_cast<int>(smem_.size()));
        }
        return hit.first->second;
    }

    // The wildcard child (DEAD if none) of subset sub on level lv; its
    // literal children, symbols ascending, are appended to syms / dsts,
    // each taking in the wildcard's members.
    int step(int sub, int lv, Ints& syms, Ints& dsts) {
        wild_.clear();
        lits_.clear();
        for (int p = soff_[sub]; p < soff_[sub + 1]; ++p) {
            const int s = smem_[p];
            if (lv == lvl_) {
                for (const auto& e : merged(s)) add_edge(e.first, e.second);
            } else {
                for (int j = g_.off[s]; j < g_.off[s + 1]; ++j) add_edge(g_.sym[j], g_.dst[j]);
            }
        }
        sort_unique(wild_);
        sort_unique(lits_);
        for (size_t q = 0; q < lits_.size();) {
            const int v = lits_[q].first;
            members_.assign(wild_.begin(), wild_.end());
            for (; q < lits_.size() && lits_[q].first == v; ++q) members_.push_back(lits_[q].second);
            sort_unique(members_);
            syms.push_back(v);
            dsts.push_back(intern(members_));
        }
        return wild_.empty() ? DEAD : intern(wild_);
    }

    // The lowest label among the members that accept, or NO_LABEL.
    int label(int sub) const {
        int best = NO_LABEL;
        auto take = [&](int s) {
            if (owner_[s] != NO_LABEL && (best == NO_LABEL || owner_[s] < best)) best = owner_[s];
        };
        for (int p = soff_[sub]; p < soff_[sub + 1]; ++p) {
            const int s = smem_[p];
            if (lvl_ != levels_) {
                take(s);
                continue;
            }
            for (int j = g_.off[s]; j < g_.off[s + 1]; ++j) take(g_.dst[j]);
        }
        return best;
    }

    // Distinct members of the subsets the walk w built.
    template <class Finisher>
    int members(const Finisher& w) const {
        Flags seen(g_.size(), 0);
        int count = 0;
        for (int sub = 0; sub + 1 < static_cast<int>(soff_.size()); ++sub) {
            if (!w.built(sub)) continue;
            for (int p = soff_[sub]; p < soff_[sub + 1]; ++p) {
                if (!seen[smem_[p]]) {
                    seen[smem_[p]] = 1;
                    ++count;
                }
            }
        }
        return count;
    }

  private:
    void add_edge(int v, int d) {
        if (v == WILDCARD)
            wild_.push_back(d);
        else
            lits_.emplace_back(v, d);
    }

    // the contracted edges of a level-lvl state, merged when first read
    const std::vector<std::pair<int, int>>& merged(int s) {
        if (merged_.empty()) {
            merged_.resize(g_.size());
            done_.assign(g_.size(), 0);
        }
        if (!done_[s]) {
            for (int j = g_.off[s]; j < g_.off[s + 1]; ++j) {
                const int t = g_.dst[j];
                for (int q = g_.off[t]; q < g_.off[t + 1]; ++q) merged_[s].emplace_back(g_.sym[q], g_.dst[q]);
            }
            sort_unique(merged_[s]);
            done_[s] = 1;
        }
        return merged_[s];
    }

    int levels_, lvl_;
    Csr g_;
    Ints owner_, roots_;
    UniqueTable ids_;
    Ints soff_{0}, smem_;
    std::vector<std::vector<std::pair<int, int>>> merged_;
    Flags done_;
    Ints wild_, members_;
    std::vector<std::pair<int, int>> lits_;
};

// After a node's literal kids at kids[kbeg, end), symbols ascending, the
// kids of the symbols they do not name on a level of domain size k: all
// to the wildcard child wild (DEAD if none), as one wildcard kid when no
// literal is named.
void add_wildcard_kids(int k, int wild, size_t kbeg, std::vector<Kid>& kids) {
    const size_t kend = kids.size();
    const int named = static_cast<int>(kend - kbeg);
    if (wild == DEAD || named >= k) return;
    if (!named) {
        kids.push_back({WILDCARD, wild});
        return;
    }
    size_t scan = kbeg;
    for (int v = 0; v < k; ++v) {
        while (scan < kend && kids[scan].v < v) ++scan;
        if (scan < kend && kids[scan].v == v) continue;
        kids.push_back({v, wild});
    }
    std::sort(kids.begin() + kbeg, kids.end());
}

// The walk over the subsets of subsets reachable from its root, into w.
template <class Finisher>
void walk_subsets(Subsets& subsets, const Ints& dom, int root, Finisher& w) {
    Ints syms, dsts;
    auto expand = [&](int sub, int lv, std::vector<Kid>& kids) {
        syms.clear();
        dsts.clear();
        const int wild = subsets.step(sub, lv, syms, dsts);
        const size_t kbeg = kids.size();
        for (size_t q = 0; q < syms.size(); ++q) kids.push_back({syms[q], dsts[q]});
        add_wildcard_kids(dom[lv], wild, kbeg, kids);
    };
    walk(dom, root, expand, [&](int sub) { return subsets.label(sub); }, w);
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
    Subsets subsets(static_cast<int>(dom.size()), -1);
    subsets.add(a.view(), a.n, a.start, a.owners(0));
    const int root = subsets.root();
    Walked w;
    walk_subsets(subsets, dom, root, w);
    const Parts p = w.single(root);
    return with_count ? pack(p, {w.nodes()}) : pack(p);
}

PyObject* py_determinize(PyObject* args) {
    return walk_own_edges(args, "iOOOOiO:determinize", true);
}

PyObject* py_minimize(PyObject* args) { return walk_own_edges(args, "iOOOOiO:minimize", false); }

Ints without_level(const Ints& dom, int lvl) {
    const int L = static_cast<int>(dom.size());
    if (lvl < 0 || lvl >= L) throw BadInput("level " + str(lvl) + " outside 0.." + str(L - 1));
    Ints out(dom);
    out.erase(out.begin() + lvl);
    return out;
}

// Project out level lvl: the walk with the level contracted on the fly.
PyObject* py_remove_level(PyObject* args) {
    int n, start, lvl;
    PyObject *t_off, *t_sym, *t_dst, *acc, *domains;
    if (!PyArg_ParseTuple(args, "iOOOOiOi:remove_level", &n, &t_off, &t_sym, &t_dst, &acc,
                          &start, &domains, &lvl))
        throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints new_dom = without_level(dom, lvl);
    Automaton a;
    a.load(n, t_off, t_sym, t_dst, acc, start, dom);
    Subsets subsets(static_cast<int>(new_dom.size()), lvl);
    subsets.add(a.view(), a.n, a.start, a.owners(0));
    const int root = subsets.root();
    Walked w;
    walk_subsets(subsets, new_dom, root, w);
    return pack(w.single(root), {subsets.members(w), w.nodes()});
}

// The shared form of per-label automata, entry i labelled i: the subset
// walk over all entries side by side, a leaf taking the lowest label among
// its accepting members.  Returns (shared, labels).
PyObject* py_join(PyObject* args) {
    PyObject *entries, *domains;
    if (!PyArg_ParseTuple(args, "OO:join", &entries, &domains)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    Ref seq(PySequence_Fast(entries, "entries must be a sequence"));
    const Py_ssize_t count = PySequence_Fast_GET_SIZE(seq.p);
    if (count > INT32_MAX) throw BadInput("too many entries");
    Subsets subsets(static_cast<int>(dom.size()), -1);
    for (int i = 0; i < count; ++i) {
        Automaton a;
        a.load_entry(PySequence_Fast_GET_ITEM(seq.p, i), dom);
        subsets.add(a.view(), a.n, 0, a.owners(i));
    }
    const int root = subsets.root();
    SharedWalked w;
    walk_subsets(subsets, dom, root, w);
    return w.result(root);
}

// [(label, parts), ...]: the automaton of each label of a shared form,
// labels ascending, from the walk over its own states.
PyObject* py_split(PyObject* args) {
    PyObject *shared, *domains;
    if (!PyArg_ParseTuple(args, "OO:split", &shared, &domains)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    Diagram d;
    d.load(shared, dom);
    const CsrView g = d.view();
    auto expand = [&](int s, int, std::vector<Kid>& kids) {
        for (int j = g.off[s]; j < g.off[s + 1]; ++j) kids.push_back({g.sym[j], g.dst[j]});
    };
    Walked w;
    walk(dom, 0, expand, [&](int s) { return d.term(s) >= 0 ? d.term(s) : NO_LABEL; }, w);
    Ref list(PyList_New(0));
    for (int p = w.beg[0]; p < w.end[0]; ++p) {
        Ref parts(pack(w.parts(w.pool[p].state)));
        Ref item(Py_BuildValue("(iO)", w.pool[p].label, parts.p));
        if (PyList_Append(list.p, item.p) < 0) throw PyFailure();
    }
    return list.release();
}

// Remove level lvl from a shared form; each string takes the lowest label
// it reaches.  Returns (shared, labels, (states, subsets)).
PyObject* py_project_entries(PyObject* args) {
    PyObject *shared, *domains;
    int lvl;
    if (!PyArg_ParseTuple(args, "OOi:project_entries", &shared, &domains, &lvl)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints new_dom = without_level(dom, lvl);
    Diagram d;
    d.load(shared, dom);
    Subsets subsets(static_cast<int>(new_dom.size()), lvl);
    subsets.add(d.view(), d.n, 0, d.owners());
    const int root = subsets.root();
    SharedWalked w;
    walk_subsets(subsets, new_dom, root, w);
    Ref result(w.result(root));
    return Ref(Py_BuildValue("(OO(ii))", PyTuple_GET_ITEM(result.p, 0), PyTuple_GET_ITEM(result.p, 1),
                             subsets.members(w), w.nodes()))
        .release();
}

bool both_live(int sa, int sb) { return sa != DEAD && sb != DEAD; }

// The walk of combine_entries over pairs (A state, B state) of the two
// operands' shared forms, in step over the union levels; on a level
// outside an operand's scope (in_a / in_b false) its state stays where it
// is.  With lvl >= 0 union level lvl is removed on the fly, as in
// _kernels_py.combine_entries.  The nodes of that fused walk are pairs p,
// as node 2p, and interned sorted sets s of pair ids, as node 2s + 1: a
// node below the removed level is the set of pairs its values lead to,
// and a set of one pair is that pair.
class PairWalk {
  public:
    PairWalk(const Diagram& a, const Diagram& b, const Ints& dom, const Ints& in_a, const Ints& in_b,
             const Ints& labels, int lvl)
        : a_(a), b_(b), ga_(a.view()), gb_(b.view()), dom_(dom), in_a_(in_a), in_b_(in_b),
          labels_(labels), nb_(b.labels), lvl_(lvl) {
        node_of({});  // set 0, node 1: no pairs, a dead child
    }

    int pair(int sa, int sb) { return pairs_(sa, sb); }
    int pairs() const { return static_cast<int>(pairs_.first.size()); }

    // The kids of pair p on union level lv, children as pair ids.
    void pair_kids(int p, int lv, std::vector<Kid>& kids) {
        const int sa = pairs_.first[p], sb = pairs_.second[p];
        const Decoded da = in_a_[lv] ? decode(ga_, sa) : Decoded{sa, NONE, NONE};
        const Decoded db = in_b_[lv] ? decode(gb_, sb) : Decoded{sb, NONE, NONE};
        merge(dom_[lv], da, db, both_live, pairs_, kids);
    }

    int pair_label(int p) const {
        const int i = a_.term(pairs_.first[p]), j = b_.term(pairs_.second[p]);
        return i < 0 || j < 0 ? NO_LABEL : labels_[static_cast<size_t>(i) * nb_ + j];
    }

    // The fused walk's root node for root pair p.
    int root(int p) { return lvl_ == 0 ? contract(p) : 2 * p; }

    // The kids of a fused node on result level lv.
    void expand(int node, int lv, std::vector<Kid>& kids) {
        if (lv < lvl_) {  // a pair above the removed level
            const size_t kbeg = kids.size();
            pair_kids(node / 2, lv, kids);
            size_t keep = kbeg;
            for (size_t q = kbeg; q < kids.size(); ++q) {
                const int child = lv == lvl_ - 1 ? contract(kids[q].node) : 2 * kids[q].node;
                if (child != NO_PAIRS) kids[keep++] = {kids[q].v, child};
            }
            kids.resize(keep);
            return;
        }
        ++lv;  // the union level
        if (node % 2 == 0) {
            const int p = node / 2;
            step(p, lv);
            for (int q = sbeg_[p]; q < send_[p]; ++q) kids.push_back({stepped_[q].v, 2 * stepped_[q].node});
            return;
        }
        // a set: its members' kids, grouped by symbol
        wild_.clear();
        lits_.clear();
        const int s = node / 2;
        for (int m = soff_[s]; m < soff_[s + 1]; ++m) {
            const int p = smem_[m];
            step(p, lv);
            for (int q = sbeg_[p]; q < send_[p]; ++q) {
                if (stepped_[q].v == WILDCARD)
                    wild_.push_back(stepped_[q].node);
                else
                    lits_.emplace_back(stepped_[q].v, stepped_[q].node);
            }
        }
        sort_unique(wild_);
        sort_unique(lits_);
        const size_t kbeg = kids.size();
        for (size_t q = 0; q < lits_.size();) {
            const int v = lits_[q].first;
            members_.assign(wild_.begin(), wild_.end());
            for (; q < lits_.size() && lits_[q].first == v; ++q) members_.push_back(lits_[q].second);
            sort_unique(members_);
            kids.push_back({v, node_of(members_)});
        }
        add_wildcard_kids(dom_[lv], wild_.empty() ? DEAD : node_of(wild_), kbeg, kids);
    }

    // The lowest label among a fused leaf's pairs, or NO_LABEL.
    int label(int node) const {
        if (node % 2 == 0) return pair_label(node / 2);
        int best = NO_LABEL;
        for (int m = soff_[node / 2]; m < soff_[node / 2 + 1]; ++m) {
            const int l = pair_label(smem_[m]);
            if (l != NO_LABEL && (best == NO_LABEL || l < best)) best = l;
        }
        return best;
    }

  private:
    static constexpr int UNSET = -2;
    static constexpr int NO_PAIRS = 1;  // the node of the empty set

    int node_of(const Ints& members) {
        if (members.size() == 1) return 2 * members[0];
        const auto hit = sets_.try_emplace(members, static_cast<int>(soff_.size()) - 1);
        if (hit.second) {
            smem_.insert(smem_.end(), members.begin(), members.end());
            soff_.push_back(static_cast<int>(smem_.size()));
        }
        return 2 * hit.first->second + 1;
    }

    // Pair p's kids on union level lv below the removed level, memoized.
    void step(int p, int lv) {
        if (p >= static_cast<int>(sbeg_.size())) {
            sbeg_.resize(p + 1, UNSET);
            send_.resize(p + 1, UNSET);
        }
        if (sbeg_[p] != UNSET) return;
        const int b = static_cast<int>(stepped_.size());
        pair_kids(p, lv, stepped_);
        sbeg_[p] = b;
        send_[p] = static_cast<int>(stepped_.size());
    }

    // The node of the children of pair p on the removed level, memoized.
    int contract(int p) {
        if (p >= static_cast<int>(contracted_.size())) contracted_.resize(p + 1, UNSET);
        if (contracted_[p] == UNSET) {
            scratch_.clear();
            pair_kids(p, lvl_, scratch_);
            children_.clear();
            for (const Kid& kid : scratch_) children_.push_back(kid.node);
            sort_unique(children_);
            contracted_[p] = node_of(children_);
        }
        return contracted_[p];
    }

    const Diagram &a_, &b_;
    const CsrView ga_, gb_;
    const Ints &dom_, &in_a_, &in_b_, &labels_;
    const long nb_;
    const int lvl_;
    Pairs pairs_;
    UniqueTable sets_;
    Ints soff_{0}, smem_;
    std::vector<Kid> stepped_, scratch_;
    Ints sbeg_, send_, contracted_;
    Ints wild_, members_, children_;
    std::vector<std::pair<int, int>> lits_;
};

// Walk the shared forms of A and B in step over the union domains, a
// string at labels (i, j) labelled labels[i * nb + j]; with lvl >= 0,
// remove union level lvl on the fly, a leaf taking the lowest label of
// its pairs.  Returns (shared, labels, (pairs, nodes)).
PyObject* py_combine_entries(PyObject* args) {
    PyObject *a_arg, *b_arg, *domains, *in_a_arg, *in_b_arg, *labels_arg;
    int lvl = -1;
    if (!PyArg_ParseTuple(args, "OOOOOO|i:combine_entries", &a_arg, &b_arg, &domains, &in_a_arg,
                          &in_b_arg, &labels_arg, &lvl))
        throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints in_a = parse_ints(in_a_arg, "in_a", 0, 1), in_b = parse_ints(in_b_arg, "in_b", 0, 1);
    const Ints labels = parse_ints(labels_arg, "labels", 0, INT32_MAX);
    if (in_a.size() != dom.size() || in_b.size() != dom.size())
        throw BadInput("in_a has " + str(in_a.size()) + " and in_b " + str(in_b.size()) +
                       " flags for " + str(dom.size()) + " levels");
    if (lvl < -1 || lvl >= static_cast<int>(dom.size()))
        throw BadInput("level " + str(lvl) + " outside -1.." + str(static_cast<long>(dom.size()) - 1));
    Ints a_dom, b_dom;
    for (size_t l = 0; l < dom.size(); ++l) {
        if (in_a[l]) a_dom.push_back(dom[l]);
        if (in_b[l]) b_dom.push_back(dom[l]);
    }
    Diagram a, b;
    a.load(a_arg, a_dom);
    b.load(b_arg, b_dom);
    if (labels.size() != static_cast<size_t>(a.labels) * static_cast<size_t>(b.labels))
        throw BadInput(str(labels.size()) + " labels for " + str(a.labels) + " x " + str(b.labels) +
                       " label pairs");

    PairWalk pw(a, b, dom, in_a, in_b, labels, lvl);
    const int root_pair = pw.pair(0, 0);
    const int root = lvl == -1 ? root_pair : pw.root(root_pair);
    SharedWalked w;
    if (lvl == -1) {
        walk(dom, root, [&](int p, int lv, std::vector<Kid>& kids) { pw.pair_kids(p, lv, kids); },
             [&](int p) { return pw.pair_label(p); }, w);
    } else {
        walk(without_level(dom, lvl), root,
             [&](int node, int lv, std::vector<Kid>& kids) { pw.expand(node, lv, kids); },
             [&](int node) { return pw.label(node); }, w);
    }
    Ref result(w.result(root));
    return Ref(Py_BuildValue("(OO(ii))", PyTuple_GET_ITEM(result.p, 0), PyTuple_GET_ITEM(result.p, 1),
                             pw.pairs(), w.nodes()))
        .release();
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
    {"join", guarded<py_join>, METH_VARARGS, "join(entries, domains) -> (shared, labels)"},
    {"split", guarded<py_split>, METH_VARARGS, "split(shared, domains) -> [(label, parts), ...]"},
    {"project_entries", guarded<py_project_entries>, METH_VARARGS,
     "project_entries(shared, domains, lvl) -> (shared, labels, (states, subsets))"},
    {"combine_entries", guarded<py_combine_entries>, METH_VARARGS,
     "combine_entries(a, b, domains, in_a, in_b, labels, lvl=-1)"
     " -> (shared, labels, (pairs, nodes))"},
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
