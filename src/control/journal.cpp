#include "control/journal.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <concepts>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

namespace iris::control {

namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

/// How the reader checks an integer. A torn write only truncates, so it
/// cannot yield a value outside [lo, hi]: that is corruption and throws past
/// the torn-tail tolerance.
struct Bound {
  long long lo = 0;
  long long hi = INT_MAX;
};
constexpr Bound kIndex;  ///< a node, edge, DC, port or pool index
constexpr Bound kUnsigned{0, LLONG_MAX};
constexpr Bound kAny{LLONG_MIN, LLONG_MAX};
constexpr long long kMaxCount = 1LL << 24;

// ---- text writing ----------------------------------------------------------

/// Writes the fields the schema below visits as ` <value>`; line() starts
/// the record's next line with its keyword.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}
  void line(const char* keyword) { os_ << '\n' << keyword; }
  /// save() sets the stream to 17 significant digits: doubles round-trip.
  template <class T>
  void num(const T& v, const char*, Bound = kIndex) {
    os_ << ' ' << v;
  }
  /// Omitted at or below its default (a record outside a scheduled op).
  void tagged(int v, const char* tag, int dflt) {
    if (v > dflt) os_ << ' ' << tag << ' ' << v;
  }
  void optional(const std::optional<int>& v, const char*, const char*) {
    os_ << ' ' << (v ? 1 : 0);
    if (v) os_ << ' ' << *v;
  }
  template <class C>
  std::size_t size(const C& c, const char*) {
    os_ << ' ' << c.size();
    return c.size();
  }
  template <class C, class F>
  void items(const C& c, std::size_t, F&& f) {
    for (const auto& x : c) f(x);
  }
  /// Entry `k` (a vector index or a map key) of one of two parallel
  /// containers; an entry only the other one has writes as empty.
  template <class C, class K>
  const auto& at(const C& c, const K& k) {
    static const std::remove_cvref_t<decltype(c.at(k))> kNone{};
    if constexpr (requires { c.find(k); }) {
      const auto it = c.find(k);
      return it == c.end() ? kNone : it->second;
    } else {
      return k < c.size() ? c[k] : kNone;
    }
  }
  /// The keys of one map or the union of two, in order.
  template <class M>
  std::vector<typename M::key_type> keys(const M& a, const M& b = {}) {
    std::set<typename M::key_type> all;
    for (const M* m : {&a, &b}) {
      for (const auto& kv : *m) all.insert(kv.first);
    }
    return {all.begin(), all.end()};
  }

 private:
  std::ostream& os_;
};

// ---- text reading ----------------------------------------------------------

/// Internal parse failure. Deliberately not a std::exception: load() decides
/// whether it means a torn tail (tolerated) or corruption (rethrown as
/// std::runtime_error); validation errors bypass it entirely.
struct ParseError {
  std::size_t line_no;
  std::string what;
};

/// Reads the fields the schema below visits from `n` framed lines, one line
/// at a time, starting on the first.
class Reader {
 public:
  Reader(const std::vector<std::string>& lines, std::size_t first,
         std::size_t n)
      : lines_(lines), next_(first), end_(first + n) {
    advance("record type");
  }

  /// The next token, parsed as a T.
  template <class T = long long>
  T read(const char* what) {
    T v{};
    if (!(ss_ >> v)) fail(std::string("expected ") + what);
    return v;
  }
  void expect(const char* keyword) {
    const auto w = read<std::string>(keyword);
    if (w != keyword) {
      fail(std::string("expected '") + keyword + "', got '" + w + "'");
    }
  }
  void line(const char* keyword) {
    end();
    advance(keyword);
    expect(keyword);
  }
  void end() {
    std::string extra;
    if (ss_ >> extra) fail("trailing tokens starting at '" + extra + "'");
  }
  void done() {
    if (next_ < end_) {
      throw ParseError{next_ + 1, "unconsumed lines in record"};
    }
  }
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError{next_, what};  // next_: the current line's 1-based number
  }

  template <class T>
  void num(T& v, const char* what, Bound b = kIndex) {
    if constexpr (std::is_floating_point_v<T>) {
      v = read<T>(what);
      return;
    }
    const long long x = read(what);
    if (x < b.lo || x > b.hi) {
      throw std::runtime_error("journal: line " + std::to_string(next_) +
                               ": bad " + what + " " + std::to_string(x));
    }
    v = static_cast<T>(x);
  }
  void tagged(int& v, const char* tag, int dflt) {
    v = dflt;
    if ((ss_ >> std::ws).eof()) return;
    expect(tag);
    num(v, tag, Bound{dflt, kMaxCount});
  }
  void optional(std::optional<int>& v, const char* flag, const char* what) {
    if (read(flag) != 0) num(v.emplace(), what);
  }
  std::size_t count(const char* what) {
    const long long x = read(what);
    if (x < 0 || x > kMaxCount) fail(std::string("bad count for ") + what);
    return static_cast<std::size_t>(x);
  }
  template <class C>
  std::size_t size(C&, const char* what) {
    return count(what);
  }
  template <class C, class F>
  void items(C& c, std::size_t n, F&& f) {
    c.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename C::value_type x{};
      f(x);
      c.insert(c.end(), std::move(x));
    }
  }
  template <class C, class K>
  auto& at(C& c, const K& k) {
    if constexpr (!requires { c.find(k); }) {
      if (k >= c.size()) c.resize(k + 1);
    }
    return c[k];
  }
  template <class M>
  std::vector<typename M::key_type> keys(const M&, const M& = {}) {
    return {};  // filled in as items() reads them
  }

 private:
  void advance(const char* what) {
    if (next_ >= end_) fail(std::string("record truncated: missing ") + what);
    ss_.clear();
    ss_.str(lines_[next_++]);
  }

  const std::vector<std::string>& lines_;
  std::size_t next_;
  std::size_t end_;
  std::istringstream ss_;
};

// ---- the schema ------------------------------------------------------------
//
// The one statement of the `iris-journal v1` record format: each function
// lists a type's fields in wire order, and Writer and Reader both walk it.
// `R` is the type itself when reading and `const` of it when writing.

template <class R, class T>
concept Of = std::same_as<std::remove_const_t<R>, T>;

/// `<count> <index>...` on the current line.
template <class IO, class C>
void list(IO& io, C& c, const char* what) {
  io.items(c, io.size(c, what), [&](auto& x) { io.num(x, what); });
}

template <class IO, Of<Circuit> C>
void fields(IO& io, C& c) {
  io.line("circuit");
  io.num(c.pair.a, "pair.a");
  io.num(c.pair.b, "pair.b");
  io.num(c.fiber_pairs, "fiber_pairs");
  io.num(c.wavelengths, "wavelengths", kAny);
  list(io, c.route.nodes, "node");
  list(io, c.route.edges, "edge");
  io.num(c.route.length_km, "length_km");
}

template <class IO, Of<AllocationRecord> A>
void fields(IO& io, A& a) {
  io.line("alloc");
  io.items(a.fibers_per_hop, io.size(a.fibers_per_hop, "hop count"),
           [&](auto& hop) { list(io, hop, "hop fiber"); });
  io.optional(a.amp_site, "amp flag", "amp site");
  list(io, a.amp_units, "amp unit");
  list(io, a.add_drop_a, "add/drop a");
  list(io, a.add_drop_b, "add/drop b");
}

/// `<site> <in_port> <out_port>`: checkpoint `zombie` lines and the record.
template <class IO, Of<ZombieConnect> Z>
void fields(IO& io, Z& z) {
  io.num(z.site, "zombie site");
  io.num(z.in_port, "zombie in_port");
  io.num(z.out_port, "zombie out_port");
}

/// `n` lines of `tuned <dc> <count>`: checkpoints and apply_end.
template <class IO, class M>
void tuned_lines(IO& io, M& tuned, std::size_t n) {
  auto dcs = io.keys(tuned);
  io.items(dcs, n, [&](auto& dc) {
    io.line("tuned");
    io.num(dc, "dc");
    io.num(io.at(tuned, dc), "tuned count", kAny);
  });
}

/// `<keyword> <n>`, then n lines of `pool <free...> <quarantined...>`.
template <class IO, class P>
void pools(IO& io, const char* keyword, P& free, P& quarantined) {
  io.line(keyword);
  const std::size_t n = io.size(free, "pool count");
  for (std::size_t i = 0; i < n; ++i) {
    io.line("pool");
    list(io, io.at(free, i), "free unit");
    list(io, io.at(quarantined, i), "quarantined unit");
  }
}

template <class IO, Of<CheckpointRecord> R>
void fields(IO& io, R& r) {
  auto& s = r.state;
  io.num(s.applies_completed, "applies_completed", kUnsigned);
  const std::size_t n = io.size(s.active, "active count");
  for (std::size_t i = 0; i < n; ++i) {
    fields(io, io.at(s.active, i));
    fields(io, io.at(s.allocations, i));
  }
  pools(io, "fibers", s.free_fibers, s.quarantined_fibers);
  pools(io, "amps", s.free_amps, s.quarantined_amps);
  io.line("add_drop");
  auto dcs = io.keys(s.free_add_drop, s.quarantined_add_drop);
  io.items(dcs, io.size(dcs, "dc count"), [&](auto& dc) {
    io.line("dcpool");
    io.num(dc, "dc");
    list(io, io.at(s.free_add_drop, dc), "free add/drop");
    list(io, io.at(s.quarantined_add_drop, dc), "quarantined add/drop");
  });
  io.line("quarantined_txs");
  auto tx_dcs = io.keys(s.quarantined_txs);
  io.items(tx_dcs, io.size(tx_dcs, "dc count"), [&](auto& dc) {
    io.line("dctxs");
    io.num(dc, "dc");
    list(io, io.at(s.quarantined_txs, dc), "quarantined tx");
  });
  io.line("zombies");
  io.items(s.zombies, io.size(s.zombies, "zombie count"), [&](auto& z) {
    io.line("zombie");
    fields(io, z);
  });
  io.line("expected_tuned");
  tuned_lines(io, s.expected_tuned, io.size(s.expected_tuned, "dc count"));
  io.line("failed_ducts");
  list(io, s.failed_ducts, "failed duct");
}

// ---- records: the header line's fields, then the body lines ----------------

template <class IO, Of<BeginApplyRecord> R>
void fields(IO& io, R& r) {
  io.num(r.seq, "seq", kUnsigned);
  io.num(r.strategy, "strategy", Bound{0, 1});
  const std::size_t n = io.size(r.target, "target count");
  io.tagged(r.slots, "slots", 0);
  io.items(r.target, n, [&](auto& c) { fields(io, c); });
}

template <class IO, class R>
  requires Of<R, TeardownBeginRecord> || Of<R, EstablishBeginRecord>
void fields(IO& io, R& r) {
  io.tagged(r.slot, "slot", -1);
  fields(io, r.circuit);
  if constexpr (Of<R, EstablishBeginRecord>) fields(io, r.alloc);
}

/// Records that wrap one value write just that value.
template <class IO, class R>
  requires Of<R, TeardownDoneRecord> || Of<R, EstablishDoneRecord> ||
           Of<R, ZombieRecord>
void fields(IO& io, R& r) {
  auto& [value] = r;
  fields(io, value);
}

template <class IO, Of<QuarantineRecord> R>
void fields(IO& io, R& r) {
  io.num(r.kind, "quarantine kind", Bound{0, 3});
  io.num(r.a, "quarantine duct/site");
  io.num(r.b, "quarantine unit");
}

template <class IO, Of<DuctEventRecord> R>
void fields(IO& io, R& r) {
  io.num(r.duct, "duct");
  io.num(r.failed, "duct_event flag", Bound{0, 1});
}

template <class IO, Of<ApplyEndRecord> R>
void fields(IO& io, R& r) {
  io.num(r.seq, "seq", kUnsigned);
  io.num(r.outcome, "outcome", Bound{0, 2});
  const std::size_t n_active = io.size(r.active, "active count");
  const std::size_t n_tuned = io.size(r.expected_tuned, "tuned count");
  io.items(r.active, n_active, [&](auto& c) { fields(io, c); });
  tuned_lines(io, r.expected_tuned, n_tuned);
}

/// Record keywords, in JournalEntry alternative order.
constexpr std::array<std::string_view, std::variant_size_v<JournalEntry>>
    kKeywords = {"checkpoint", "begin_apply", "teardown_begin", "teardown_done",
                 "establish_begin", "establish_done", "quarantine", "zombie",
                 "duct_event", "apply_end"};

JournalEntry read_record(Reader& io) {
  static const auto kBlank = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<JournalEntry, sizeof...(I)>{
        JournalEntry(std::in_place_index<I>)...};
  }(std::make_index_sequence<kKeywords.size()>{});
  const auto kw = io.read<std::string>("record type");
  const auto it = std::find(kKeywords.begin(), kKeywords.end(), kw);
  if (it == kKeywords.end()) io.fail("unknown record type '" + kw + "'");
  JournalEntry entry = kBlank[static_cast<std::size_t>(it - kKeywords.begin())];
  std::visit([&](auto& r) { fields(io, r); }, entry);
  io.end();
  if (const auto* cp = std::get_if<CheckpointRecord>(&entry)) {
    validate_checkpoint(cp->state);  // corruption throws, even if final
  }
  io.done();
  return entry;
}

}  // namespace

std::size_t IntentJournal::compact() {
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (std::holds_alternative<CheckpointRecord>(entries_[i])) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(i));
      return i;
    }
  }
  return 0;
}

void IntentJournal::save(std::ostream& os) const {
  os << "iris-journal v1\n";
  std::ostringstream body;
  body.precision(17);
  Writer io(body);
  for (const JournalEntry& e : entries_) {
    body.str("");
    body << kKeywords[e.index()];
    std::visit([&](const auto& r) { fields(io, r); }, e);
    body << '\n';
    const std::string text = body.str();
    os << "record " << std::count(text.begin(), text.end(), '\n') << '\n'
       << text;
  }
}

std::string IntentJournal::to_text() const {
  std::ostringstream os;
  save(os);
  return os.str();
}

IntentJournal IntentJournal::load(std::istream& is) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    lines.push_back(std::move(line));
  }
  const auto blank = [](const std::string& l) {
    return l.empty() || l[0] == '#';
  };
  IntentJournal journal;
  bool file_header = true;
  for (std::size_t i = 0;;) {
    while (i < lines.size() && blank(lines[i])) ++i;
    if (i >= lines.size()) return journal;  // an empty file is an empty log
    // The defective region a parse failure taints: just the header line
    // until the framing count is known, the framed body once it is. The
    // torn-tail test below must not see lines before the failure.
    std::size_t record_end = i + 1;
    try {
      Reader header(lines, i, 1);
      if (std::exchange(file_header, false)) {
        header.expect("iris-journal");
        header.expect("v1");
        header.end();
      } else {
        header.expect("record");
        const std::size_t n = header.count("record line count");
        header.end();
        record_end += n;
        if (record_end > lines.size()) {
          throw ParseError{lines.size(), "record truncated at end of file"};
        }
        Reader body(lines, i + 1, n);
        journal.entries_.push_back(read_record(body));
      }
      i = record_end;
    } catch (const ParseError& e) {
      // A defective final record (or half-written file header) is a torn
      // tail -- the crash interrupted the write -- and is dropped. Defects
      // with intact records after them are corruption, not tearing.
      if (std::all_of(lines.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(record_end, lines.size())),
                      lines.end(), blank)) {
        journal.dropped_torn_tail_ = true;
        return journal;
      }
      throw std::runtime_error("journal: line " + std::to_string(e.line_no) +
                               ": " + e.what);
    }
  }
}

IntentJournal IntentJournal::from_text(const std::string& text) {
  std::istringstream is(text);
  return load(is);
}

IntentJournal::Intent IntentJournal::replay() const {
  Intent out;
  ControllerCheckpoint& st = out.stable;
  std::optional<InFlightApply>& ifa = out.in_flight;

  const auto replay_fail = [](const std::string& what) {
    throw std::runtime_error("journal replay: " + what);
  };
  const auto mark_done = [&](bool teardown, const Circuit& c,
                             const char* what) {
    if (!ifa) replay_fail(std::string(what) + " outside an apply");
    for (auto it = ifa->ops.rbegin(); it != ifa->ops.rend(); ++it) {
      if (it->teardown == teardown && !it->done && it->circuit == c) {
        it->done = true;
        return;
      }
    }
    replay_fail(std::string(what) + " without a matching begin");
  };
  const auto quarantine_into = [](std::vector<int>& quarantined,
                                  std::vector<int>& free_pool, int idx) {
    if (std::find(quarantined.begin(), quarantined.end(), idx) !=
        quarantined.end()) {
      return;
    }
    quarantined.push_back(idx);
    const auto it = std::find(free_pool.begin(), free_pool.end(), idx);
    if (it != free_pool.end()) free_pool.erase(it);
  };
  // Resource indices must fall inside the last checkpoint's pool shape: a
  // hostile record must not grow (or, at -1, wrap and shrink) the pools.
  const auto in_shape = [&](auto& pools, long long i,
                            const char* what) -> decltype(auto) {
    if (i < 0 || i >= static_cast<long long>(pools.size())) {
      replay_fail(std::string(what) + " " + std::to_string(i) +
                  " outside the checkpoint's pools");
    }
    return pools[static_cast<std::size_t>(i)];
  };
  const auto dc_shape = [&](graph::NodeId dc) {
    if (!st.free_add_drop.contains(dc)) {
      replay_fail("DC " + std::to_string(dc) + " has no add/drop pool");
    }
  };

  for (const JournalEntry& entry : entries_) {
    std::visit(
        overloaded{
            [&](const CheckpointRecord& r) {
              if (ifa) replay_fail("checkpoint inside an open apply");
              st = r.state;
            },
            [&](const BeginApplyRecord& r) {
              if (ifa) replay_fail("begin_apply while an apply is open");
              ifa = InFlightApply{r.seq, r.strategy, r.target, {}, r.slots};
            },
            [&](const TeardownBeginRecord& r) {
              if (!ifa) replay_fail("teardown_begin outside an apply");
              ifa->ops.push_back({true, r.circuit, std::nullopt, false, r.slot});
            },
            [&](const TeardownDoneRecord& r) {
              mark_done(true, r.circuit, "teardown_done");
            },
            [&](const EstablishBeginRecord& r) {
              if (!ifa) replay_fail("establish_begin outside an apply");
              ifa->ops.push_back({false, r.circuit, r.alloc, false, r.slot});
            },
            [&](const EstablishDoneRecord& r) {
              mark_done(false, r.circuit, "establish_done");
            },
            [&](const QuarantineRecord& r) {
              if (r.b < 0) replay_fail("negative quarantined index");
              switch (r.kind) {
                case 0:
                  quarantine_into(in_shape(st.quarantined_fibers, r.a, "duct"),
                                  in_shape(st.free_fibers, r.a, "duct"), r.b);
                  break;
                case 1:
                  dc_shape(r.a);
                  quarantine_into(st.quarantined_add_drop[r.a],
                                  st.free_add_drop[r.a], r.b);
                  break;
                case 2:
                  quarantine_into(in_shape(st.quarantined_amps, r.a, "site"),
                                  in_shape(st.free_amps, r.a, "site"), r.b);
                  break;
                default:
                  if (r.a < 0) replay_fail("negative transceiver DC");
                  st.quarantined_txs[r.a].insert(r.b);
              }
            },
            [&](const ZombieRecord& r) {
              if (std::find(st.zombies.begin(), st.zombies.end(), r.zombie) ==
                  st.zombies.end()) {
                st.zombies.push_back(r.zombie);
              }
            },
            [&](const DuctEventRecord& r) {
              const auto it = std::find(st.failed_ducts.begin(),
                                        st.failed_ducts.end(), r.duct);
              if (r.failed && it == st.failed_ducts.end()) {
                st.failed_ducts.push_back(r.duct);
              } else if (!r.failed && it != st.failed_ducts.end()) {
                st.failed_ducts.erase(it);
              }
            },
            [&](const ApplyEndRecord& r) {
              if (!ifa || ifa->seq != r.seq) {
                replay_fail("apply_end without a matching begin_apply");
              }
              // Resolve allocations for the final set: the apply's own
              // establishes first (latest wins -- a circuit may have been
              // unwound and retried on fresh resources), then the previous
              // stable books for survivors.
              std::vector<AllocationRecord> allocations;
              allocations.reserve(r.active.size());
              for (const Circuit& c : r.active) {
                const AllocationRecord* found = nullptr;
                for (auto it = ifa->ops.rbegin(); it != ifa->ops.rend(); ++it) {
                  if (!it->teardown && it->circuit == c) {
                    found = &*it->alloc;
                    break;
                  }
                }
                if (found == nullptr) {
                  for (std::size_t k = 0; k < st.active.size(); ++k) {
                    if (st.active[k] == c) {
                      found = &st.allocations[k];
                      break;
                    }
                  }
                }
                if (found == nullptr) {
                  replay_fail("apply_end circuit has no known allocation");
                }
                allocations.push_back(*found);
              }
              // The fold must also keep the free pools canonical: the
              // finished apply returns every index the previous books held
              // and claims every index the new books hold (a kept circuit's
              // indices round-trip). Quarantined indices never re-enter a
              // free pool, and pools stay sorted descending so a recovering
              // successor draws exactly what the original would have.
              const auto give = [](std::vector<int>& free_pool,
                                   const std::vector<int>& quarantined,
                                   int idx) {
                if (std::find(quarantined.begin(), quarantined.end(), idx) !=
                    quarantined.end()) {
                  return;
                }
                if (std::find(free_pool.begin(), free_pool.end(), idx) !=
                    free_pool.end()) {
                  return;
                }
                free_pool.insert(
                    std::lower_bound(free_pool.begin(), free_pool.end(), idx,
                                     std::greater<int>()),
                    idx);
              };
              const auto take = [](std::vector<int>& free_pool, int idx) {
                const auto it =
                    std::find(free_pool.begin(), free_pool.end(), idx);
                if (it != free_pool.end()) free_pool.erase(it);
              };
              const auto pool_op = [&](const Circuit& c,
                                       const AllocationRecord& a,
                                       bool give_back) {
                for (std::size_t h = 0;
                     h < a.fibers_per_hop.size() && h < c.route.edges.size();
                     ++h) {
                  const graph::EdgeId e = c.route.edges[h];
                  auto& free_pool = in_shape(st.free_fibers, e, "duct");
                  auto& quar = in_shape(st.quarantined_fibers, e, "duct");
                  for (int idx : a.fibers_per_hop[h]) {
                    give_back ? give(free_pool, quar, idx)
                              : take(free_pool, idx);
                  }
                }
                if (a.amp_site) {
                  const graph::NodeId s = *a.amp_site;
                  auto& free_pool = in_shape(st.free_amps, s, "site");
                  auto& quar = in_shape(st.quarantined_amps, s, "site");
                  for (int u : a.amp_units) {
                    give_back ? give(free_pool, quar, u) : take(free_pool, u);
                  }
                }
                dc_shape(c.pair.a);
                dc_shape(c.pair.b);
                for (int p : a.add_drop_a) {
                  give_back ? give(st.free_add_drop[c.pair.a],
                                   st.quarantined_add_drop[c.pair.a], p)
                            : take(st.free_add_drop[c.pair.a], p);
                }
                for (int p : a.add_drop_b) {
                  give_back ? give(st.free_add_drop[c.pair.b],
                                   st.quarantined_add_drop[c.pair.b], p)
                            : take(st.free_add_drop[c.pair.b], p);
                }
              };
              for (std::size_t k = 0; k < st.active.size(); ++k) {
                pool_op(st.active[k], st.allocations[k], true);
              }
              for (std::size_t k = 0; k < r.active.size(); ++k) {
                pool_op(r.active[k], allocations[k], false);
              }
              st.active = r.active;
              st.allocations = std::move(allocations);
              st.expected_tuned = r.expected_tuned;
              // The count must save as text that loads back (kUnsigned).
              if (st.applies_completed >=
                  static_cast<std::uint64_t>(LLONG_MAX)) {
                replay_fail("applies_completed past 2^63 - 1");
              }
              ++st.applies_completed;
              ifa.reset();
            },
        },
        entry);
  }
  return out;
}

void validate_checkpoint(const ControllerCheckpoint& cp) {
  const auto corrupt = [](const std::string& what) {
    throw std::runtime_error("journal: corrupt checkpoint: " + what);
  };
  if (cp.allocations.size() != cp.active.size()) {
    corrupt("active/allocation count mismatch");
  }
  if (cp.free_fibers.size() != cp.quarantined_fibers.size()) {
    corrupt("fiber pool vector sizes differ");
  }
  if (cp.free_amps.size() != cp.quarantined_amps.size()) {
    corrupt("amplifier pool vector sizes differ");
  }

  // Per-circuit shape checks, collecting allocated indices per resource.
  std::map<int, std::vector<int>> fiber_alloc;     // duct -> indices
  std::map<int, std::vector<int>> amp_alloc;       // site -> indices
  std::map<int, std::vector<int>> add_drop_alloc;  // dc -> indices
  for (std::size_t i = 0; i < cp.active.size(); ++i) {
    const Circuit& c = cp.active[i];
    const AllocationRecord& a = cp.allocations[i];
    if (c.pair.a < 0 || c.pair.b < 0) corrupt("negative circuit endpoint");
    if (c.fiber_pairs <= 0 || c.wavelengths < 0) corrupt("bad circuit sizes");
    if (c.route.nodes.size() != c.route.edges.size() + 1) {
      corrupt("route node/edge counts inconsistent");
    }
    for (graph::NodeId n : c.route.nodes) {
      if (n < 0) corrupt("negative route node");
    }
    if (a.fibers_per_hop.size() != c.route.edges.size()) {
      corrupt("allocation hop count != route edge count");
    }
    for (std::size_t h = 0; h < a.fibers_per_hop.size(); ++h) {
      const graph::EdgeId e = c.route.edges[h];
      if (e < 0) corrupt("negative route edge");
      if (static_cast<int>(a.fibers_per_hop[h].size()) != c.fiber_pairs) {
        corrupt("hop fiber count != circuit fiber_pairs");
      }
      auto& seen = fiber_alloc[e];
      seen.insert(seen.end(), a.fibers_per_hop[h].begin(),
                  a.fibers_per_hop[h].end());
    }
    if (a.amp_site) {
      if (*a.amp_site < 0) corrupt("negative amplifier site");
      if (static_cast<int>(a.amp_units.size()) != c.fiber_pairs) {
        corrupt("amp unit count != circuit fiber_pairs");
      }
      auto& seen = amp_alloc[*a.amp_site];
      seen.insert(seen.end(), a.amp_units.begin(), a.amp_units.end());
    } else if (!a.amp_units.empty()) {
      corrupt("amplifier units without an amplifier site");
    }
    if (static_cast<int>(a.add_drop_a.size()) != c.fiber_pairs ||
        static_cast<int>(a.add_drop_b.size()) != c.fiber_pairs) {
      corrupt("add/drop count != circuit fiber_pairs");
    }
    auto& at_a = add_drop_alloc[c.pair.a];
    at_a.insert(at_a.end(), a.add_drop_a.begin(), a.add_drop_a.end());
    auto& at_b = add_drop_alloc[c.pair.b];
    at_b.insert(at_b.end(), a.add_drop_b.begin(), a.add_drop_b.end());
  }

  // Index sanity: no resource may be negative, appear twice within one
  // part (double-free, double-quarantine, double-allocation), or sit in the
  // free pool while also quarantined or allocated. A quarantined index MAY
  // still be allocated: a resource can fail while a circuit holds it --
  // mid-apply, replay folds that as quarantined-and-allocated until the
  // teardown commits -- and it stays out of the free pool when returned.
  const auto check_partition = [&](const std::vector<int>& free_pool,
                                   const std::vector<int>& quarantined,
                                   const std::vector<int>& allocated,
                                   const char* what) {
    const auto dedup = [&](const std::vector<int>& part) {
      std::set<int> seen;
      for (int idx : part) {
        if (idx < 0) corrupt(std::string("negative ") + what + " index");
        if (!seen.insert(idx).second) {
          corrupt(std::string("duplicate ") + what + " index " +
                  std::to_string(idx));
        }
      }
      return seen;
    };
    dedup(free_pool);
    const std::set<int> quar = dedup(quarantined);
    const std::set<int> alloc = dedup(allocated);
    for (int idx : free_pool) {
      if (quar.contains(idx) || alloc.contains(idx)) {
        corrupt(std::string("duplicate ") + what + " index " +
                std::to_string(idx));
      }
    }
  };
  static const std::vector<int> kNone;
  const auto alloc_for = [](const std::map<int, std::vector<int>>& m,
                            int key) -> const std::vector<int>& {
    const auto it = m.find(key);
    return it == m.end() ? kNone : it->second;
  };
  for (std::size_t d = 0; d < cp.free_fibers.size(); ++d) {
    check_partition(cp.free_fibers[d], cp.quarantined_fibers[d],
                    alloc_for(fiber_alloc, static_cast<int>(d)), "fiber");
  }
  for (const auto& [duct, indices] : fiber_alloc) {
    if (!cp.free_fibers.empty() &&
        duct >= static_cast<int>(cp.free_fibers.size())) {
      corrupt("allocation references unknown duct");
    }
  }
  for (std::size_t n = 0; n < cp.free_amps.size(); ++n) {
    check_partition(cp.free_amps[n], cp.quarantined_amps[n],
                    alloc_for(amp_alloc, static_cast<int>(n)), "amplifier");
  }
  for (const auto& [site, indices] : amp_alloc) {
    if (!cp.free_amps.empty() &&
        site >= static_cast<int>(cp.free_amps.size())) {
      corrupt("allocation references unknown amplifier site");
    }
  }
  {
    std::set<graph::NodeId> dcs;
    for (const auto& [dc, pool] : cp.free_add_drop) dcs.insert(dc);
    for (const auto& [dc, pool] : cp.quarantined_add_drop) dcs.insert(dc);
    for (const auto& [dc, pool] : add_drop_alloc) dcs.insert(dc);
    for (graph::NodeId dc : dcs) {
      const auto f = cp.free_add_drop.find(dc);
      const auto q = cp.quarantined_add_drop.find(dc);
      check_partition(f == cp.free_add_drop.end() ? kNone : f->second,
                      q == cp.quarantined_add_drop.end() ? kNone : q->second,
                      alloc_for(add_drop_alloc, dc), "add/drop");
    }
  }
  for (const auto& [dc, txs] : cp.quarantined_txs) {
    if (dc < 0) corrupt("negative transceiver DC");
    for (int t : txs) {
      if (t < 0) corrupt("negative transceiver index");
    }
  }
  for (const auto& [dc, count] : cp.expected_tuned) {
    if (dc < 0 || count < 0) corrupt("bad expected tuned entry");
  }
  for (const ZombieConnect& z : cp.zombies) {
    if (z.site < 0 || z.in_port < 0 || z.out_port < 0) {
      corrupt("bad zombie cross-connect");
    }
  }
  {
    std::set<graph::EdgeId> seen;
    for (graph::EdgeId e : cp.failed_ducts) {
      if (e < 0) corrupt("negative failed duct");
      if (!seen.insert(e).second) corrupt("duplicate failed duct");
    }
  }
}

}  // namespace iris::control
