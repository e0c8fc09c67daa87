// Flat-array kernels for leveled-DAFSA algebra, compiled edition.
//
// A hand-written C++17 twin of ``_kernels_py``: the same kernels under the
// same names and positional signatures, returning byte-identical canonical
// results (see that module for the representation contract).  One shape
// goes in: an automaton is its parts (t_off, t_sym, t_dst, acc) and a
// factor its shared form (t_off, t_sym, t_dst, term), both rooted at state
// 0, except for the start that determinize and minimize take.  One shape
// comes out: every kernel but split returns a shared form and its labels,
// the four one-label kernels (product, determinize, minimize,
// remove_level) with label 0 only, so that its one terminal, if any, is the
// accepting state.  Arrays are read through the buffer protocol and must
// have format 'i'; results are array('i').
//
// Unlike the Python edition, every kernel checks its inputs before it
// reads them: CSR shape, state ids, each reachable state's symbols against
// the domain of its breadth-first level, and that each of its edges runs
// to the next level, for every automaton, entry and shared form (Graph);
// the accepting ids of an automaton or entry (Automaton); a shared form's
// terms, one per state, a label or -1, terminals without edges on the
// last level and no other leaf but an empty function's root (Diagram);
// the lengths of the level flags and labels of combine_entries, each of
// its labels a label or -1, and that it has a level to fold; and the rows
// of compile_sorted, their symbols and order, one label per row and the
// default, each a label or -1.  A violation raises
// dafbe.errors.AutomatonError, and running out of memory raises
// MemoryError, so no input can crash the interpreter.
//
// Labels are ints >= 0, and -1 (NO_LABEL) is no label, in every kernel of
// both editions: a string labelled -1 is no string, and -1 never wins a
// minimum (lowest).  So compile_sorted's -1 rows and default, and a -1 in
// combine_entries' label table, leave their strings out, and a leaf that
// takes the lowest label among its children or members takes the least
// label >= 0, or has no string if there is none.  Only difference needs a
// label that wins: product labels B's accepting states VETO (-2), which
// ranks below every label and is no string.
//
// Every kernel builds its result minimal as it goes, with no merge pass.
// Each but split is one walk (Walk) whose leaves carry a label or none.
// Both editions walk level by level, with the same algorithm: expand one
// level at a time from the root, then build one level per pass, bottom-up,
// one state per node interned in a unique table (Unique), which gives a
// shared form.  Each level's states are numbered in the order its nodes
// first reach them, so the result comes out breadth-first and only split
// renumbers; the two editions' results are byte-identical.  In both, a
// walk that finds every string at one label builds no level and returns
// the constant's wildcard chain (Walk).
// In both, compile_sorted walks the trie of its rows, runs of rows that
// share a prefix; determinize, minimize and remove_level
// walk subsets of states (Subsets), with one label; join walks subsets of
// entries side by side; project_entries walks subsets of the states of one
// shared form with its level contracted, the walk of remove_level with
// more labels (contract); and combine_entries walks pairs of states, one
// per operand (combine).
// product has no walk of its own: its modes are choices of labels over
// these walks, as an apply takes its operator as a parameter.
// Intersection is the pair walk over the operands' accepting states
// labelled 0, every level in both, with label table {0}.  Union and
// difference are join's side-by-side subset walk, B's accepting states
// labelled 0, or VETO for difference, so that a string B accepts is no
// string.  split makes one backward pass over a shared form's states
// instead, interning one state per label each state reaches in one
// Unique.  To fold, combine_entries removes the last union level in the
// same walk: a pair on it is a leaf that takes the lowest label among its
// children, so a bucket's combined factor is never built and no set of
// pairs ever forms.  The solver folds a lone factor against the constant
// SCALAR, so every last level it removes is a fold's.
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
constexpr int VETO = -2;  // a label below every other, and no string

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

// Flat result parts: (t_off, t_sym, t_dst, acc or term), rooted at state 0.
struct Parts {
    Ints off, sym, dst, acc;
};

// The breadth-first level of each state from root (-1 if unreachable)
// into lev, and the states root reaches, in breadth-first order, into order.
template <class G>
void bfs_levels(const G& g, int n, int root, Ints& lev, Ints& order) {
    lev.assign(n, -1);
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

// A complete literal fan (symbols 0..k-1) onto one successor.
bool complete_fan(const Ints& syms, const Ints& dsts, int k) {
    if (k <= 0 || syms.size() != static_cast<size_t>(k) || syms.front() != 0 || syms.back() != k - 1)
        return false;
    return std::all_of(dsts.begin(), dsts.end(), [&](int d) { return d == dsts[0]; });
}

// Result states, built children first and interned in a unique table
// keyed by (symbols, destinations), as in _kernels_py's split: equal right
// languages share one state.  A state's destinations all sit on the next
// level, so the key implies its level.  Leaves, which have no edges, are
// added apart from the table.  A walk clears the table after each level.
struct Unique {
    Csr res;
    UniqueTable table;
    Ints sig;

    int add_leaf() {
        res.off.push_back(res.off.back());
        return res.size() - 1;
    }

    // The state with edges syms -> dsts (nonempty, symbol-sorted) on a
    // level of domain size k; a complete literal fan onto one child becomes
    // a wildcard.
    int intern(int k, Ints& syms, Ints& dsts) {
        if (complete_fan(syms, dsts, k)) {
            syms.assign(1, WILDCARD);
            dsts.resize(1);
        }
        sig.assign(syms.begin(), syms.end());
        sig.insert(sig.end(), dsts.begin(), dsts.end());
        const auto hit = table.try_emplace(sig, res.size());
        if (hit.second) res.add_state(syms, dsts);
        return hit.first->second;
    }
};

// The lower of two labels, NO_LABEL counting as none.
int lowest(int best, int label) {
    return label != NO_LABEL && (best == NO_LABEL || label < best) ? label : best;
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
    Ints lev;    // breadth-first level from start, -1 if unreachable
    Ints order;  // the states start reaches, in breadth-first order

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
    void check(const Ints& dom, int start_state = 0) {
        if (off_buf.size() < 2)
            throw BadInput("t_off has " + str(off_buf.size()) + " entries, so there is no start state");
        if (off_buf.size() > INT32_MAX) throw BadInput("t_off is too long");
        n = static_cast<int>(off_buf.size()) - 1;
        start = start_state;
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
        bfs_levels(g, n, start, lev, order);
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

// One automaton argument, its parts (t_off, t_sym, t_dst, acc), from start.
struct Automaton : Graph {
    IntBuffer acc_buf;

    void load(PyObject* parts, const Ints& dom, int start_state = 0) {
        Ref seq(PySequence_Fast(parts, "an automaton must be a sequence of four arrays"));
        PyObject** item = items(seq, "an automaton", "(t_off, t_sym, t_dst, acc)");
        acquire(item[0], item[1], item[2]);
        acc_buf.acquire(item[3], "acc");
        check(dom, start_state);
        for (Py_ssize_t q = 0; q < acc_buf.size(); ++q) {
            if (acc_buf[q] < 0 || acc_buf[q] >= n)
                throw BadInput("accepting state " + str(acc_buf[q]) + " outside 0.." + str(n - 1));
        }
    }

    // the label of each state: label if accepting, else NO_LABEL
    Ints owners(int label) const {
        Ints out(n, NO_LABEL);
        for (Py_ssize_t q = 0; q < acc_buf.size(); ++q) out[acc_buf[q]] = label;
        return out;
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
        check(dom);
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

// (t_off, t_sym, t_dst, acc) as a tuple of four arrays.
PyObject* pack(const Parts& p) {
    Ref out(PyTuple_New(4));
    Py_ssize_t i = 0;
    for (const Ints* part : {&p.off, &p.sym, &p.dst, &p.acc}) {
        PyTuple_SET_ITEM(out.p, i++, Ref(to_array(*part)).release());
    }
    return out.release();
}

// -- the walk ----------------------------------------------------------------

// One candidate edge of a node: symbol and child node.
struct Kid {
    int v, node;
    bool operator<(const Kid& o) const { return v < o.v; }
};

// The level-by-level walk behind every kernel but split, as
// _kernels_py._walk and _Shared.  Nodes are ints >= 0 that expand hands
// out: expand(node, lv, kids) appends the node's kids on level lv,
// symbols ascending and a wildcard only alone; label_of(node) gives the
// label of a node past the last level, NO_LABEL or VETO for no string.
// The walk expands one level at a time from the root, listing each
// level's nodes once, in the order the level above first names them;
// then it builds one level per pass, bottom-up, one state per listed
// node, or DEAD if it has no string.  A node past the last level becomes
// the terminal of its label, one per label; any other keeps its kids
// whose child is not DEAD and is interned in the unique table, which is
// cleared after each level.  So each level's states sit together in the
// result CSR, numbered in the order the level's nodes first reach them,
// and shifting each level's ids gives the breadth-first numbering.
// A walk whose every string gets one label builds nothing: when it lists
// a leaf, every leaf has the same label and every listed node a complete
// fan (its level's k symbols, or the lone wildcard), the result is that
// constant, and parts() gives its canonical form, one wildcard edge per
// level down to one terminal, as _kernels_py._walk does.  The count of
// terminals is tested first, so a walk with several labels reads nothing
// more.
class Walk {
  public:
    template <class Expand, class LabelOf>
    Walk(const Ints& dom, int root, const Expand& expand, const LabelOf& label_of)
        : levels_(static_cast<int>(dom.size())), base_(levels_ + 1, 0) {
        // every listed node's kids in turn, each child as its index in nodes_:
        // node i's are kids[nodes_[i - 1].kend, nodes_[i].kend)
        std::vector<Kid> kids;
        nodes_.push_back({root, 0, DEAD});
        start_.reserve(levels_ + 2);
        {
            // per node, where it was last listed: a slot below the level's start is a level above
            Ints slot;
            for (int lv = 0; lv < levels_; ++lv) {
                const int lo = start_.back(), hi = static_cast<int>(nodes_.size());
                start_.push_back(hi);
                for (int i = lo; i < hi; ++i) {
                    const size_t kbeg = kids.size();
                    expand(nodes_[i].node, lv, kids);
                    for (size_t q = kbeg; q < kids.size(); ++q) {
                        const size_t node = static_cast<size_t>(kids[q].node);
                        if (node >= slot.size()) slot.resize(node + 1, -1);
                        if (slot[node] < hi) {
                            slot[node] = static_cast<int>(nodes_.size());
                            nodes_.push_back({kids[q].node, 0, DEAD});
                        }
                        kids[q].node = slot[node];
                    }
                    nodes_[i].kend = static_cast<int>(kids.size());
                }
            }
        }
        start_.push_back(static_cast<int>(nodes_.size()));
        for (int i = start_[levels_]; i < start_[levels_ + 1]; ++i) nodes_[i].state = leaf(label_of(nodes_[i].node));
        if (terminals_.size() == 1 && complete(dom, kids)) {
            constant_ = terminals_.begin()->first;
            return;
        }
        Ints syms, dsts;
        for (int lv = levels_ - 1; lv >= 0; --lv) {
            base_[lv] = out_.res.size();
            for (int i = start_[lv]; i < start_[lv + 1]; ++i) {
                syms.clear();
                dsts.clear();
                for (int q = i ? nodes_[i - 1].kend : 0; q < nodes_[i].kend; ++q) {
                    const int d = nodes_[kids[q].node].state;
                    if (d == DEAD) continue;
                    syms.push_back(kids[q].v);
                    dsts.push_back(d);
                }
                if (!syms.empty()) nodes_[i].state = out_.intern(dom[lv], syms, dsts);
            }
            out_.table.clear();
        }
        root_ = nodes_[0].state;
    }

    int listed(int lv) const { return start_[lv + 1] - start_[lv]; }  // the nodes on level lv
    int walked() const { return static_cast<int>(nodes_.size()); }    // the nodes on every level

    // The shared form, its term in p.acc: each level's states follow the
    // levels above, and term renumbers each terminal's label into labels,
    // ascending.
    Parts parts(Ints& labels) const {
        if (constant_ != NO_LABEL) {  // one wildcard edge per level down to the terminal
            Parts p;
            for (int lv = 0; lv <= levels_; ++lv) p.off.push_back(lv);
            p.off.push_back(levels_);
            p.sym.assign(levels_, WILDCARD);
            for (int lv = 1; lv <= levels_; ++lv) p.dst.push_back(lv);
            p.acc.assign(levels_, -1);
            p.acc.push_back(0);
            labels.push_back(constant_);
            return p;
        }
        if (root_ == DEAD) return {{0, 0}, {}, {}, {-1}};
        Parts p;
        p.off.reserve(out_.res.off.size());
        p.off.push_back(0);
        p.sym.reserve(out_.res.sym.size());
        p.dst.reserve(out_.res.dst.size());
        const CsrView g = out_.res.view();
        int first = 0;  // the id of level lv's first state: the states of the levels above
        for (int lv = 0; lv <= levels_; ++lv) {
            const int lo = base_[lv], hi = lv ? base_[lv - 1] : out_.res.size();
            const int shift = first + hi - lo - (lv < levels_ ? base_[lv + 1] : 0);  // into level lv + 1
            for (int r = lo; r < hi; ++r) {
                p.sym.insert(p.sym.end(), g.syms(r).begin(), g.syms(r).end());
                for (int d : g.dsts(r)) p.dst.push_back(d + shift);
                p.off.push_back(static_cast<int>(p.sym.size()));
            }
            if (lv < levels_) first += hi - lo;
        }
        std::vector<std::pair<int, int>> found(terminals_.begin(), terminals_.end());  // (label, state)
        std::sort(found.begin(), found.end());
        p.acc.assign(p.off.size() - 1, -1);
        for (size_t r = 0; r < found.size(); ++r) {
            p.acc[first + found[r].second] = static_cast<int>(r);
            labels.push_back(found[r].first);
        }
        return p;
    }

    // (parts, labels) of the shared form, as Python objects
    PyObject* result() const {
        Ints labels;
        Ref parts(pack(this->parts(labels)));
        Ref list(PyList_New(static_cast<Py_ssize_t>(labels.size())));
        for (size_t r = 0; r < labels.size(); ++r)
            PyList_SET_ITEM(list.p, static_cast<Py_ssize_t>(r), Ref(PyLong_FromLong(labels[r])).release());
        return Ref(PyTuple_Pack(2, parts.p, list.p)).release();
    }

  private:
    // A listed node: its id, the end of its kids, and its state once built.
    struct Listed {
        int node, kend, state;
    };
    std::vector<Listed> nodes_;  // level lv lists nodes_[start_[lv], start_[lv + 1])
    Ints start_{0};
    int levels_;
    Ints base_;  // out_.res id of level lv's first state; the terminals come first
    Unique out_;
    std::unordered_map<int, int> terminals_;  // label -> state
    int root_ = DEAD;
    int constant_ = NO_LABEL;  // the label of every string, when the walk found one

    // Whether no leaf is DEAD and every listed node above the leaves has a
    // complete fan: its level's k symbols (k > 0), or the lone wildcard.
    bool complete(const Ints& dom, const std::vector<Kid>& kids) const {
        for (int i = start_[levels_]; i < start_[levels_ + 1]; ++i) {
            if (nodes_[i].state == DEAD) return false;
        }
        for (int lv = 0; lv < levels_; ++lv) {
            for (int i = start_[lv]; i < start_[lv + 1]; ++i) {
                const int beg = i ? nodes_[i - 1].kend : 0, n = nodes_[i].kend - beg;
                if (!(n > 0 && n == dom[lv]) && !(n == 1 && kids[beg].v == WILDCARD)) return false;
            }
        }
        return true;
    }

    int leaf(int label) {
        if (label < 0) return DEAD;
        const auto hit = terminals_.try_emplace(label, 0);
        if (hit.second) hit.first->second = out_.add_leaf();
        return hit.first->second;
    }
};

// Pairs of state ids, interned as dense node ids.
struct Pairs {
    std::unordered_map<uint64_t, int> ids;
    Ints first, second;
    int operator()(int a, int b) {
        const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
                             static_cast<uint32_t>(b);
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

// The kids of a pair node, appended to kids: each symbol both sides read,
// a side's wildcard reading every symbol, to the child pair(da, db).  A
// side with no edges reads none, so its pair gets no kids.
template <class Pair>
void merge(const Decoded& a, const Decoded& b, Pair& pair, std::vector<Kid>& kids) {
    const size_t na = a.syms.size(), nb = b.syms.size();
    if (!na && !nb) {
        if (a.wild != DEAD && b.wild != DEAD) kids.push_back({WILDCARD, pair(a.wild, b.wild)});
        return;
    }
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
        if (da != DEAD && db != DEAD) kids.push_back({v, pair(da, db)});
    }
}

// -- kernels -----------------------------------------------------------------

Decoded decode(const CsrView& g, int s) {
    Span syms = g.syms(s), dsts = g.dsts(s);
    if (syms.size() && syms[0] == WILDCARD) return {dsts[0], NONE, NONE};
    return {DEAD, syms, dsts};
}

// One operand of the combine walk: its graph, the label of each state
// (NO_LABEL for none), and per union level whether it reads that level.
struct Side {
    CsrView g;
    Ints term, in;
};

// The walk over pairs (A state, B state) of two operands rooted at state
// 0, in step over the union domains: a string at labels (i, j) is
// labelled labels[i * nb + j], nb one more than B's largest label; on a
// level an operand does not read its state stays where it is.  With fold,
// the last union level is removed in the same walk: a pair on it is a
// leaf, labelled by the least label >= 0 among its children.
Walk combine(const Ints& dom, const Side& a, const Side& b, const Ints& labels, bool fold) {
    const size_t nb = static_cast<size_t>(*std::max_element(b.term.begin(), b.term.end()) + 1);
    // the kids of pair (sa, sb) on union level lv, child pairs as pair(da, db)
    auto pair_kids = [&](int sa, int sb, int lv, auto& pair, std::vector<Kid>& kids) {
        const Decoded da = a.in[lv] ? decode(a.g, sa) : Decoded{sa, NONE, NONE};
        const Decoded db = b.in[lv] ? decode(b.g, sb) : Decoded{sb, NONE, NONE};
        merge(da, db, pair, kids);
    };
    auto pair_label = [&](int sa, int sb) {
        const int i = a.term[sa], j = b.term[sb];
        return i < 0 || j < 0 ? NO_LABEL : labels[static_cast<size_t>(i) * nb + j];
    };
    Pairs pairs;
    const Ints walked(dom.begin(), dom.end() - fold);
    const int last = static_cast<int>(walked.size());  // the folded level
    std::vector<Kid> children;  // a folded leaf's, each as its label
    auto expand = [&](int p, int lv, std::vector<Kid>& kids) {
        pair_kids(pairs.first[p], pairs.second[p], lv, pairs, kids);
    };
    auto label_of = [&](int p) {
        if (!fold) return pair_label(pairs.first[p], pairs.second[p]);
        children.clear();
        pair_kids(pairs.first[p], pairs.second[p], last, pair_label, children);
        int best = NO_LABEL;
        for (const Kid& kid : children) best = lowest(best, kid.node);
        return best;
    };
    return Walk(walked, pairs(0, 0), expand, label_of);
}

// Subsets of the states of one or more automata side by side, stepped
// level by level, as in _kernels_py._subset_walk.  add puts each
// automaton's states after the ones before, owner[s] the label of state s
// or NO_LABEL; a subset past the last level takes its members' lowest
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
        for (int p = soff_[sub]; p < soff_[sub + 1]; ++p) {
            const int s = smem_[p];
            if (lvl_ != levels_) {
                best = lowest(best, owner_[s]);
                continue;
            }
            for (int j = g_.off[s]; j < g_.off[s + 1]; ++j) best = lowest(best, owner_[g_.dst[j]]);
        }
        return best;
    }

    // Distinct members of the subsets interned, every one a walk lists.
    int members() const {
        Flags seen(g_.size(), 0);
        int count = 0;
        for (int s : smem_) {
            count += !seen[s];
            seen[s] = 1;
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

// The walk over the subsets of subsets reachable from the subset of every
// automaton's start state.
Walk walk_subsets(Subsets& subsets, const Ints& dom) {
    Ints syms, dsts;
    auto expand = [&](int sub, int lv, std::vector<Kid>& kids) {
        syms.clear();
        dsts.clear();
        const int wild = subsets.step(sub, lv, syms, dsts);
        const size_t kbeg = kids.size();
        for (size_t q = 0; q < syms.size(); ++q) kids.push_back({syms[q], dsts[q]});
        add_wildcard_kids(dom[lv], wild, kbeg, kids);
    };
    return Walk(dom, subsets.root(), expand, [&](int sub) { return subsets.label(sub); });
}

// (shared, labels, sample) of a walk, sample built by Py_BuildValue from
// format and the counts.
template <class... Counts>
PyObject* with_sample(const Walk& w, const char* format, Counts... counts) {
    Ref result(w.result());
    return Ref(Py_BuildValue(format, PyTuple_GET_ITEM(result.p, 0), PyTuple_GET_ITEM(result.p, 1),
                             counts...))
        .release();
}

// Intersection (mode 0), union (1) or difference (2) of a and b, as
// choices of labels over other kernels' walks, each operand's accepting
// states labelled: intersection is the combine walk, every level in both
// operands, with label table {0}; union and difference are join's
// side-by-side subset walk, B's accepting states labelled 0 or VETO, which
// a subset that B accepts takes as its lowest label.
PyObject* py_product(PyObject* args) {
    int mode;
    PyObject *a_arg, *b_arg, *domains;
    if (!PyArg_ParseTuple(args, "iOOO:product", &mode, &a_arg, &b_arg, &domains)) throw PyFailure();
    if (mode < 0 || mode > 2) throw BadInput("product mode " + str(mode) + " is not 0, 1 or 2");
    const Ints dom = parse_domains(domains);
    Automaton a, b;
    a.load(a_arg, dom);
    b.load(b_arg, dom);
    if (mode == 0) {
        const Ints every(dom.size(), 1);
        return combine(dom, {a.view(), a.owners(0), every}, {b.view(), b.owners(0), every}, {0}, false)
            .result();
    }
    Subsets subsets(static_cast<int>(dom.size()), -1);
    subsets.add(a.view(), a.n, 0, a.owners(0));
    subsets.add(b.view(), b.n, 0, b.owners(mode == 1 ? 0 : VETO));
    return walk_subsets(subsets, dom).result();
}

// determinize and minimize: the walk over the input's own edges (a DFA is
// an NFA whose subsets are singletons).
PyObject* walk_own_edges(PyObject* args, const char* format, bool with_count) {
    int start;
    PyObject *a_arg, *domains;
    if (!PyArg_ParseTuple(args, format, &a_arg, &start, &domains)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    Automaton a;
    a.load(a_arg, dom, start);
    Subsets subsets(static_cast<int>(dom.size()), -1);
    subsets.add(a.view(), a.n, a.start, a.owners(0));
    const Walk w = walk_subsets(subsets, dom);
    return with_count ? with_sample(w, "(OOi)", w.walked()) : w.result();
}

PyObject* py_determinize(PyObject* args) { return walk_own_edges(args, "OiO:determinize", true); }

PyObject* py_minimize(PyObject* args) { return walk_own_edges(args, "OiO:minimize", false); }

Ints without_level(const Ints& dom, int lvl) {
    const int L = static_cast<int>(dom.size());
    if (lvl < 0 || lvl >= L) throw BadInput("level " + str(lvl) + " outside 0.." + str(L - 1));
    Ints out(dom);
    out.erase(out.begin() + lvl);
    return out;
}

// Remove level lvl of g, rooted at state 0, owners[s] the label of state
// s: the subset walk with the level contracted on the fly, new_dom the
// domains without it.  Returns (shared, labels, (states, subsets)).
PyObject* contract(const Graph& g, const Ints& owners, const Ints& new_dom, int lvl) {
    Subsets subsets(static_cast<int>(new_dom.size()), lvl);
    subsets.add(g.view(), g.n, 0, owners);
    const Walk w = walk_subsets(subsets, new_dom);
    return with_sample(w, "(OO(ii))", subsets.members(), w.walked());
}

// Project out level lvl of an automaton, which may be nondeterministic.
PyObject* py_remove_level(PyObject* args) {
    int lvl;
    PyObject *a_arg, *domains;
    if (!PyArg_ParseTuple(args, "OOi:remove_level", &a_arg, &domains, &lvl)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints new_dom = without_level(dom, lvl);
    Automaton a;
    a.load(a_arg, dom);
    return contract(a, a.owners(0), new_dom, lvl);
}

// The shared form of n_strings labelled rows of a flat buffer, strictly
// increasing, and of dflt on every string no row names: the walk over the
// trie of the rows, as _kernels_py.compile_sorted.  Node 0 is the default
// node, on every level; every other node is a run of the rows that share
// a prefix, [lo[node], hi[node]).  The trie is a tree, so a run is
// reached from one parent only and is numbered as it is found.
PyObject* compile_sorted(const IntBuffer& dig, int n_strings, int length, const Ints& dom,
                         const IntBuffer& labels, int dflt) {
    Ints lo{0}, hi{0};
    auto run = [&](int first, int last) {
        lo.push_back(first);
        hi.push_back(last);
        return static_cast<int>(lo.size()) - 1;
    };
    auto expand = [&](int node, int lv, std::vector<Kid>& kids) {
        const size_t kbeg = kids.size();
        for (int i = lo[node]; i < hi[node];) {
            const int v = dig[static_cast<Py_ssize_t>(i) * length + lv];
            int j = i + 1;
            while (j < hi[node] && dig[static_cast<Py_ssize_t>(j) * length + lv] == v) ++j;
            kids.push_back({v, run(i, j)});
            i = j;
        }
        add_wildcard_kids(dom[lv], dflt == NO_LABEL ? DEAD : 0, kbeg, kids);
    };
    auto label_of = [&](int node) { return lo[node] < hi[node] ? labels[lo[node]] : dflt; };
    return Walk(dom, n_strings ? run(0, n_strings) : 0, expand, label_of).result();
}

PyObject* py_compile_sorted(PyObject* args) {
    PyObject *digits, *domains, *labels_arg;
    int n_strings, length, dflt;
    if (!PyArg_ParseTuple(args, "OiiOOi:compile_sorted", &digits, &n_strings, &length, &domains,
                          &labels_arg, &dflt))
        throw PyFailure();
    IntBuffer dig, labels;
    dig.acquire(digits, "digits");
    labels.acquire(labels_arg, "labels");
    const Ints dom = parse_domains(domains);
    if (n_strings < 0 || length < 0)
        throw BadInput("negative string count or length: " + str(n_strings) + ", " + str(length));
    if (static_cast<Py_ssize_t>(dom.size()) != length)
        throw BadInput(str(dom.size()) + " domains for strings of length " + str(length));
    if (dig.size() != static_cast<Py_ssize_t>(n_strings) * length)
        throw BadInput("digits holds " + str(dig.size()) + " ints, expected " + str(n_strings) +
                       " x " + str(length));
    if (labels.size() != n_strings)
        throw BadInput("labels holds " + str(labels.size()) + " ints for " + str(n_strings) + " strings");
    if (dflt < NO_LABEL) throw BadInput("default label " + str(dflt) + " below -1");
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
        if (labels[i] < NO_LABEL)
            throw BadInput("string " + str(i) + ": label " + str(labels[i]) + " below -1");
    }
    return compile_sorted(dig, n_strings, length, dom, labels, dflt);
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
        a.load(PySequence_Fast_GET_ITEM(seq.p, i), dom);
        subsets.add(a.view(), a.n, 0, a.owners(i));
    }
    return walk_subsets(subsets, dom).result();
}

// [(label, parts), ...]: the automaton of each label of a shared form,
// labels ascending, as _kernels_py.split: one backward pass over the
// states the root reaches, deepest level first, each getting one state per
// label it reaches, interned in one unique table for all labels.  The
// terminals share one sink, which accepts in every label's automaton.
PyObject* py_split(PyObject* args) {
    PyObject *shared, *domains;
    if (!PyArg_ParseTuple(args, "OO:split", &shared, &domains)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    Diagram d;
    d.load(shared, dom);
    const CsrView g = d.view();
    Unique u;
    const int sink = u.add_leaf();
    // state s's (label, result state) pairs are pool[beg[s], end[s]), labels ascending
    std::vector<std::pair<int, int>> pool;
    Ints beg(d.n), end(d.n), syms, dsts;
    std::vector<std::tuple<int, int, int>> found;  // (label, symbol, child's state)
    for (auto it = d.order.rbegin(); it != d.order.rend(); ++it) {
        const int s = *it, lv = d.lev[s];
        beg[s] = static_cast<int>(pool.size());
        if (lv == static_cast<int>(dom.size())) {
            if (d.term(s) >= 0) pool.emplace_back(d.term(s), sink);
        } else {
            found.clear();
            for (int j = g.off[s]; j < g.off[s + 1]; ++j) {
                const int c = g.dst[j];
                for (int p = beg[c]; p < end[c]; ++p)
                    found.emplace_back(pool[p].first, g.sym[j], pool[p].second);
            }
            std::sort(found.begin(), found.end());
            for (size_t i = 0; i < found.size();) {
                const int label = std::get<0>(found[i]);
                syms.clear();
                dsts.clear();
                for (; i < found.size() && std::get<0>(found[i]) == label; ++i) {
                    syms.push_back(std::get<1>(found[i]));
                    dsts.push_back(std::get<2>(found[i]));
                }
                pool.emplace_back(label, u.intern(dom[lv], syms, dsts));
            }
        }
        end[s] = static_cast<int>(pool.size());
    }
    Ref list(PyList_New(0));
    Ints old2new(u.res.size(), -1), order;
    for (int p = beg[0]; p < end[0]; ++p) {
        Parts parts;
        renumber(u.res.view(), pool[p].second, old2new, order, parts);
        parts.acc.push_back(old2new[sink]);
        reset(old2new, order);
        Ref packed(pack(parts));
        Ref item(Py_BuildValue("(iO)", pool[p].first, packed.p));
        if (PyList_Append(list.p, item.p) < 0) throw PyFailure();
    }
    return list.release();
}

// Remove level lvl from a shared form; each string takes the lowest label
// it reaches.  The solver removes last levels with combine_entries' fold.
PyObject* py_project_entries(PyObject* args) {
    PyObject *shared, *domains;
    int lvl;
    if (!PyArg_ParseTuple(args, "OOi:project_entries", &shared, &domains, &lvl)) throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints new_dom = without_level(dom, lvl);
    Diagram d;
    d.load(shared, dom);
    return contract(d, d.owners(), new_dom, lvl);
}

// The walk of combine over the shared forms A and B, in_a / in_b flagging
// the union levels each reads.  Returns (shared, labels, (pairs, pairs)).
PyObject* py_combine_entries(PyObject* args) {
    PyObject *a_arg, *b_arg, *domains, *in_a_arg, *in_b_arg, *labels_arg;
    int fold = 0;
    if (!PyArg_ParseTuple(args, "OOOOOO|p:combine_entries", &a_arg, &b_arg, &domains, &in_a_arg,
                          &in_b_arg, &labels_arg, &fold))
        throw PyFailure();
    const Ints dom = parse_domains(domains);
    const Ints in_a = parse_ints(in_a_arg, "in_a", 0, 1), in_b = parse_ints(in_b_arg, "in_b", 0, 1);
    const Ints labels = parse_ints(labels_arg, "labels", NO_LABEL, INT32_MAX);
    if (in_a.size() != dom.size() || in_b.size() != dom.size())
        throw BadInput("in_a has " + str(in_a.size()) + " and in_b " + str(in_b.size()) +
                       " flags for " + str(dom.size()) + " levels");
    if (fold && dom.empty()) throw BadInput("fold over no levels");
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
    const Walk w = combine(dom, {a.view(), a.owners(), in_a}, {b.view(), b.owners(), in_b}, labels, fold);
    // each pair once: on a level neither operand reads, a pair stays where it is
    const int last = static_cast<int>(dom.size()) - fold;
    int pairs = w.listed(last);
    for (int lv = 0; lv < last; ++lv) pairs += in_a[lv] || in_b[lv] ? w.listed(lv) : 0;
    return with_sample(w, "(OO(ii))", pairs, pairs);
}

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
    {"minimize", guarded<py_minimize>, METH_VARARGS, "minimize(a, start, domains) -> (shared, labels)"},
    {"compile_sorted", guarded<py_compile_sorted>, METH_VARARGS,
     "compile_sorted(digits, n_strings, length, domains, labels, default) -> (shared, labels)"},
    {"product", guarded<py_product>, METH_VARARGS,
     "product(mode, a, b, domains) -> (shared, labels); mode 0 = intersect, 1 = union, 2 = difference"},
    {"determinize", guarded<py_determinize>, METH_VARARGS,
     "determinize(a, start, domains) -> (shared, labels, raw_states)"},
    {"remove_level", guarded<py_remove_level>, METH_VARARGS,
     "remove_level(a, domains, lvl) -> (shared, labels, (nfa_states, raw_states))"},
    {"join", guarded<py_join>, METH_VARARGS, "join(entries, domains) -> (shared, labels)"},
    {"split", guarded<py_split>, METH_VARARGS, "split(shared, domains) -> [(label, parts), ...]"},
    {"project_entries", guarded<py_project_entries>, METH_VARARGS,
     "project_entries(shared, domains, lvl) -> (shared, labels, (states, subsets))"},
    {"combine_entries", guarded<py_combine_entries>, METH_VARARGS,
     "combine_entries(a, b, domains, in_a, in_b, labels, fold=False)"
     " -> (shared, labels, (pairs, pairs)); fold removes the last level"},
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
    // libstdc++ allocates a thread's exception state at its first throw;
    // throwing once here allocates it at import, so a later bad_alloc
    // under a memory cap still has it and becomes MemoryError
    try {
        throw 0;
    } catch (int) {
    }
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
