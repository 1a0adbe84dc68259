// IntentJournal serialization and replay (the controller's write-ahead
// intent log). Pins down the durability contract recovery leans on:
// save/load/save is byte-idempotent, a torn final record (crash mid-write)
// is dropped and flagged at any byte-truncation point, a structurally
// corrupt checkpoint is rejected with a clear error, and replay folds
// committed applies into the stable state while reconstructing the one
// in-flight apply a crash interrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "control/commands.hpp"
#include "control/controller.hpp"
#include "control/journal.hpp"
#include "fibermap/generator.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams journal_params() {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

/// Shared planned region: small enough for fast tests, big enough that an
/// apply touches several ducts, amp sites and add/drop pools.
struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    fibermap::RegionParams region;
    region.seed = 7;
    region.dc_count = 4;
    region.hut_count = 8;
    region.capacity_fibers = 8;
    auto map = fibermap::generate_region(region);
    auto net = core::provision(map, journal_params());
    auto plan = core::place_amplifiers_and_cutthroughs(map, net);
    return Fixture{std::move(map), std::move(net), std::move(plan)};
  }();
  return f;
}

TrafficMatrix demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        40 + 20 * static_cast<long long>(i) + 40LL * scale;
  }
  return tm;
}

/// A journal populated by real controller activity: attach (checkpoint),
/// three applies with changing demand, one duct failure + restore.
IntentJournal journal_from_run() {
  const Fixture& f = fixture();
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan);
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  controller.fail_duct(0);
  controller.apply_traffic_matrix(demand(f.map, 1));
  controller.restore_duct(0);
  controller.apply_traffic_matrix(demand(f.map, 2));
  EXPECT_TRUE(controller.audit_devices());
  return journal;
}

TEST(JournalText, SaveLoadSaveIsByteIdempotent) {
  const IntentJournal journal = journal_from_run();
  ASSERT_FALSE(journal.empty());

  const std::string text1 = journal.to_text();
  const IntentJournal reloaded = IntentJournal::from_text(text1);
  EXPECT_FALSE(reloaded.dropped_torn_tail());
  EXPECT_EQ(reloaded.size(), journal.size());
  const std::string text2 = reloaded.to_text();
  EXPECT_EQ(text1, text2);

  // And the reloaded journal replays to the same intent.
  const auto a = journal.replay();
  const auto b = reloaded.replay();
  EXPECT_EQ(a.stable.applies_completed, b.stable.applies_completed);
  EXPECT_EQ(a.stable.active, b.stable.active);
  EXPECT_EQ(a.in_flight.has_value(), b.in_flight.has_value());
}

TEST(JournalText, StreamRoundTripMatchesStringRoundTrip) {
  const IntentJournal journal = journal_from_run();
  std::ostringstream os;
  journal.save(os);
  std::istringstream is(os.str());
  const IntentJournal reloaded = IntentJournal::load(is);
  EXPECT_EQ(reloaded.to_text(), journal.to_text());
}

TEST(JournalText, EmptyJournalRoundTrips) {
  const IntentJournal empty;
  const IntentJournal reloaded = IntentJournal::from_text(empty.to_text());
  EXPECT_TRUE(reloaded.empty());
  EXPECT_FALSE(reloaded.dropped_torn_tail());
  // A wholly empty file is an empty journal, not an error.
  EXPECT_TRUE(IntentJournal::from_text("").empty());
}

Circuit golden_circuit(graph::NodeId a, graph::NodeId b,
                       std::vector<graph::NodeId> nodes,
                       std::vector<graph::EdgeId> edges, double km) {
  Circuit c;
  c.pair = DcPair(a, b);
  c.route.nodes = std::move(nodes);
  c.route.edges = std::move(edges);
  c.route.length_km = km;
  c.fiber_pairs = 2;
  c.wavelengths = 40;
  return c;
}

/// Every record type written by hand: serial and async apply records, an
/// allocation with and without an amplifier site, a checkpoint whose
/// quarantined add/drop pools name a DC the free pools lack, and a
/// non-integral route length.
IntentJournal golden_journal() {
  const Circuit lit = golden_circuit(0, 2, {0, 5, 2}, {1, 3}, 12.3);
  const Circuit next = golden_circuit(2, 0, {2, 4, 0}, {0, 2}, 7.0);
  AllocationRecord lit_alloc;
  lit_alloc.fibers_per_hop = {{0, 1}, {2, 3}};
  lit_alloc.amp_site = 5;
  lit_alloc.amp_units = {0, 1};
  lit_alloc.add_drop_a = {0, 1};
  lit_alloc.add_drop_b = {2, 3};
  AllocationRecord next_alloc;
  next_alloc.fibers_per_hop = {{1, 0}, {3, 2}};
  next_alloc.add_drop_a = {3, 2};
  next_alloc.add_drop_b = {1, 0};

  ControllerCheckpoint cp;
  cp.applies_completed = 4;
  cp.active = {lit};
  cp.allocations = {lit_alloc};
  cp.free_fibers = {{3, 2}, {3, 2}, {1, 0}, {1, 0}};
  cp.quarantined_fibers = {{}, {4}, {}, {}};
  cp.free_amps = {{}, {}, {}, {}, {}, {3, 2}};
  cp.quarantined_amps = {{}, {}, {}, {}, {}, {4}};
  cp.free_add_drop = {{0, {3, 2}}, {2, {1, 0}}};
  cp.quarantined_add_drop = {{0, {4}}, {7, {0}}};
  cp.quarantined_txs = {{2, {1, 5}}};
  cp.zombies = {{5, 3, 9}};
  cp.expected_tuned = {{0, 2}, {2, 2}};
  cp.failed_ducts = {2};

  IntentJournal j;
  j.append(CheckpointRecord{cp});
  j.append(BeginApplyRecord{5, 1, {next}});
  j.append(TeardownBeginRecord{lit});
  j.append(TeardownDoneRecord{lit});
  j.append(EstablishBeginRecord{next, next_alloc});
  j.append(EstablishDoneRecord{next});
  j.append(QuarantineRecord{3, 2, 6});
  j.append(ZombieRecord{{5, 4, 10}});
  j.append(DuctEventRecord{2, false});
  j.append(ApplyEndRecord{5, 0, {next}, {{0, 2}, {2, 2}}});
  j.append(DuctEventRecord{1, true});
  j.append(BeginApplyRecord{6, 0, {lit}, 3});
  j.append(TeardownBeginRecord{next, 2});
  j.append(EstablishBeginRecord{lit, lit_alloc, 0});
  return j;
}

// The wire format, byte for byte: state fingerprints hash save() output and
// shard recovery round-trips the journal through text, so any drift in the
// writer or the reader shows here first.
TEST(JournalText, GoldenTextPinsTheWireFormat) {
  const std::string golden = R"(iris-journal v1
record 27
checkpoint 4 1
circuit 0 2 2 40 3 0 5 2 2 1 3 12.300000000000001
alloc 2 2 0 1 2 2 3 1 5 2 0 1 2 0 1 2 2 3
fibers 4
pool 2 3 2 0
pool 2 3 2 1 4
pool 2 1 0 0
pool 2 1 0 0
amps 6
pool 0 0
pool 0 0
pool 0 0
pool 0 0
pool 0 0
pool 2 3 2 1 4
add_drop 3
dcpool 0 2 3 2 1 4
dcpool 2 2 1 0 0
dcpool 7 0 1 0
quarantined_txs 1
dctxs 2 2 1 5
zombies 1
zombie 5 3 9
expected_tuned 2
tuned 0 2
tuned 2 2
failed_ducts 1 2
record 2
begin_apply 5 1 1
circuit 0 2 2 40 3 2 4 0 2 0 2 7
record 2
teardown_begin
circuit 0 2 2 40 3 0 5 2 2 1 3 12.300000000000001
record 2
teardown_done
circuit 0 2 2 40 3 0 5 2 2 1 3 12.300000000000001
record 3
establish_begin
circuit 0 2 2 40 3 2 4 0 2 0 2 7
alloc 2 2 1 0 2 3 2 0 0 2 3 2 2 1 0
record 2
establish_done
circuit 0 2 2 40 3 2 4 0 2 0 2 7
record 1
quarantine 3 2 6
record 1
zombie 5 4 10
record 1
duct_event 2 0
record 4
apply_end 5 0 1 2
circuit 0 2 2 40 3 2 4 0 2 0 2 7
tuned 0 2
tuned 2 2
record 1
duct_event 1 1
record 2
begin_apply 6 0 1 slots 3
circuit 0 2 2 40 3 0 5 2 2 1 3 12.300000000000001
record 2
teardown_begin slot 2
circuit 0 2 2 40 3 2 4 0 2 0 2 7
record 3
establish_begin slot 0
circuit 0 2 2 40 3 0 5 2 2 1 3 12.300000000000001
alloc 2 2 0 1 2 2 3 1 5 2 0 1 2 0 1 2 2 3
)";
  const IntentJournal j = golden_journal();
  EXPECT_EQ(j.to_text(), golden);
  const IntentJournal reloaded = IntentJournal::from_text(golden);
  EXPECT_FALSE(reloaded.dropped_torn_tail());
  EXPECT_EQ(reloaded.size(), j.size());
  EXPECT_EQ(reloaded.to_text(), golden);
}

// A crash can truncate the journal at ANY byte. Every truncation point must
// load without throwing, yield a prefix of the original records, and flag
// the torn tail iff a partial record was dropped.
TEST(JournalText, EveryByteTruncationIsAPrefixOrATornTail) {
  const IntentJournal journal = journal_from_run();
  const std::string text = journal.to_text();
  ASSERT_GT(text.size(), 200u);

  const std::string full_again = IntentJournal::from_text(text).to_text();
  ASSERT_EQ(full_again, text);

  std::size_t torn = 0;
  std::size_t clean_prefixes = 0;
  // Sweep a dense set of cut points: every byte of the first and last 400
  // bytes, every 7th byte in between.
  for (std::size_t cut = 0; cut < text.size();
       cut += (cut < 400 || cut + 400 >= text.size()) ? 1 : 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    IntentJournal partial;
    ASSERT_NO_THROW(partial = IntentJournal::from_text(text.substr(0, cut)));
    ASSERT_LE(partial.size(), journal.size());
    if (partial.dropped_torn_tail()) {
      ++torn;
    } else {
      ++clean_prefixes;
    }
    // Whatever survived must itself round-trip and replay.
    const std::string saved = partial.to_text();
    EXPECT_EQ(IntentJournal::from_text(saved).to_text(), saved);
    EXPECT_NO_THROW((void)partial.replay());
  }
  // The sweep must have seen both regimes.
  EXPECT_GT(torn, 0u);
  EXPECT_GT(clean_prefixes, 0u);
}

TEST(JournalText, HalfWrittenHeaderIsATornEmptyLog) {
  const IntentJournal j = IntentJournal::from_text("iris-jou");
  EXPECT_TRUE(j.empty());
  EXPECT_TRUE(j.dropped_torn_tail());
}

TEST(JournalText, WrongHeaderIsRejected) {
  EXPECT_THROW((void)IntentJournal::from_text("iris-journal v2\nrecord 0\n"),
               std::runtime_error);
}

TEST(JournalText, GarbageBetweenIntactRecordsIsCorruptionNotTearing) {
  const IntentJournal journal = journal_from_run();
  std::string text = journal.to_text();
  // Mangle the first record's framing while intact records follow: that is
  // corruption, not a torn tail, and must throw with a line number.
  const std::size_t pos = text.find("record ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "rekord");
  try {
    (void)IntentJournal::from_text(text);
    FAIL() << "corrupt journal was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal: line"), std::string::npos)
        << e.what();
  }
}

TEST(JournalText, CorruptCheckpointIsRejectedWithClearError) {
  const Fixture& f = fixture();
  IrisController controller(f.map, f.net, f.plan);
  controller.apply_traffic_matrix(demand(f.map, 0));
  ControllerCheckpoint cp = controller.snapshot();

  // Double-allocate: copy a free fiber index into the quarantine of the
  // same duct. Serialization does not validate, load does.
  ASSERT_FALSE(cp.free_fibers.empty());
  std::size_t duct = 0;
  while (duct < cp.free_fibers.size() && cp.free_fibers[duct].empty()) ++duct;
  ASSERT_LT(duct, cp.free_fibers.size());
  cp.quarantined_fibers[duct].push_back(cp.free_fibers[duct].front());

  IntentJournal j;
  j.append(CheckpointRecord{cp});
  const std::string text = j.to_text();
  try {
    (void)IntentJournal::from_text(text);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt checkpoint"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate fiber"), std::string::npos)
        << e.what();
  }
  // validate_checkpoint also rejects it directly (recover()'s guard).
  EXPECT_THROW(validate_checkpoint(cp), std::runtime_error);
}

/// A one-hop circuit whose only route edge is `edge`, with an allocation
/// that names it -- a hostile record when `edge` is out of range.
Circuit circuit_on_edge(graph::EdgeId edge) {
  Circuit c;
  c.pair = DcPair(0, 1);
  c.route.nodes = {0, 1};
  c.route.edges = {edge};
  c.fiber_pairs = 1;
  c.wavelengths = 1;
  return c;
}

AllocationRecord one_fiber_alloc() {
  AllocationRecord a;
  a.fibers_per_hop = {{0}};
  a.add_drop_a = {0};
  a.add_drop_b = {0};
  return a;
}

// Negative indices can never come from a torn write (truncation only drops
// characters), so they are rejected with a line number wherever they sit,
// final record included -- before replay could index a pool with them.
TEST(JournalText, NegativeIndicesAreRejectedWithLineNumbers) {
  const std::string base = journal_from_run().to_text();
  std::vector<IntentJournal> hostile(2);
  hostile[0].append(QuarantineRecord{0, -1, 5});
  hostile[1].append(ApplyEndRecord{0, 0, {circuit_on_edge(-1)}, {}});
  std::vector<std::string> records;
  for (const IntentJournal& j : hostile) {
    records.push_back(
        j.to_text().substr(std::string("iris-journal v1\n").size()));
  }
  // Numbers outside their field's range: a negative sequence number would
  // wrap to 2^64 - 5 and save as text that no longer loads, a fiber count
  // past int would narrow, and an unknown strategy, outcome, quarantine
  // kind or duct_event flag, or a negative slot count, would replay.
  for (const char* record : {
           "record 1\nbegin_apply -5 0 0\n",
           "record 1\napply_end -5 0 0 0\n",
           "record 8\ncheckpoint -5 0\nfibers 0\namps 0\nadd_drop 0\n"
           "quarantined_txs 0\nzombies 0\nexpected_tuned 0\nfailed_ducts 0\n",
           "record 2\nteardown_done\ncircuit 0 1 4294967297 1 2 0 1 1 0 0\n",
           "record 1\nbegin_apply 0 7 0\n",
           "record 1\napply_end 0 3 0 0\n",
           "record 1\nbegin_apply 0 0 0 slots -3\n",
           "record 1\nquarantine 9 0 0\n",
           "record 1\nduct_event 0 7\n",
       }) {
    records.emplace_back(record);
  }
  for (const std::string& record : records) {
    for (const std::string& text : {base + record, base + record + record}) {
      try {
        (void)IntentJournal::from_text(text);
        FAIL() << "negative index accepted:\n" << record;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("journal: line"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(JournalText, CorruptCheckpointThrowsEvenAsFinalRecord) {
  // Torn-tail tolerance must NOT extend to a complete-but-inconsistent
  // checkpoint, even when it is the last record in the file.
  ControllerCheckpoint cp;
  cp.free_fibers = {{3, 2, 3}};  // duplicate index 3 within one pool
  cp.quarantined_fibers = {{}};
  IntentJournal j;
  j.append(CheckpointRecord{cp});
  EXPECT_THROW((void)IntentJournal::from_text(j.to_text()),
               std::runtime_error);
}

// ---- seeded mutation fuzzing of IntentJournal::load ------------------------

/// A journal cut off by a controller crash in its second apply: slot-stamped
/// records and an open transaction at the tail.
IntentJournal crash_journal() {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan, devices);
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  devices.fault_injector().arm_crash(9);
  EXPECT_THROW(controller.apply_traffic_matrix(demand(f.map, 2)),
               ControllerCrash);
  return journal;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// [begin, end) of every token that starts with a digit or a minus sign.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = text.find_first_not_of(" \n"); i != std::string::npos;
       i = text.find_first_not_of(" \n", i)) {
    const std::size_t begin = i;
    i = std::min(text.find_first_of(" \n", i), text.size());
    if (std::isdigit(static_cast<unsigned char>(text[begin])) ||
        text[begin] == '-') {
      out.emplace_back(begin, i);
    }
  }
  return out;
}

/// One mutant of `text`; `kind` picks the mutation.
std::string mutate(const std::string& text, int kind, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<std::string> lines = split_lines(text);
  switch (kind) {
    case 0: {  // bit flip
      std::string out = text;
      out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
      return out;
    }
    case 1: {  // dropped line
      const std::size_t i = pick(lines.size());
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      return join_lines(lines);
    }
    case 2: {  // duplicated line
      const std::size_t i = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join_lines(lines);
    }
    case 3:  // swapped lines
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      return join_lines(lines);
    case 4: {  // numeric extreme
      static const char* const kExtremes[] = {"-1", "2147483648",
                                              "9223372036854775807", "1e308"};
      const auto tokens = numeric_tokens(text);
      const auto [b, e] = tokens[pick(tokens.size())];
      return text.substr(0, b) + kExtremes[pick(4)] + text.substr(e);
    }
    default:  // truncation
      return text.substr(0, pick(text.size()));
  }
}

// Every mutant must either be rejected with a `journal` error or load to a
// journal whose text reloads byte-identically and whose replay either folds
// or rejects it with a `journal replay:` error -- never crash, hang or throw
// anything else.
TEST(JournalFuzz, MutantsAreRejectedOrRoundTrip) {
  const std::vector<std::string> seeds = {journal_from_run().to_text(),
                                          crash_journal().to_text()};
  ASSERT_NE(seeds[1].find(" slot "), std::string::npos);
  std::mt19937_64 rng(0x15a1);
  constexpr int kKinds = 6;
  constexpr int kPerKind = 250;
  int rejected = 0;
  int loaded = 0;
  for (const std::string& seed : seeds) {
    for (int kind = 0; kind < kKinds; ++kind) {
      for (int n = 0; n < kPerKind; ++n) {
        const std::string text = mutate(seed, kind, rng);
        SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                     std::to_string(n));
        IntentJournal journal;
        try {
          journal = IntentJournal::from_text(text);
        } catch (const std::runtime_error& e) {
          ++rejected;
          ASSERT_TRUE(std::string(e.what()).starts_with("journal")) << e.what();
          continue;
        }
        ++loaded;
        const std::string saved = journal.to_text();
        std::string resaved;
        ASSERT_NO_THROW(resaved = IntentJournal::from_text(saved).to_text())
            << text;
        ASSERT_EQ(resaved, saved) << text;
        try {
          (void)journal.replay();
        } catch (const std::runtime_error& e) {
          ASSERT_TRUE(std::string(e.what()).starts_with("journal replay:"))
              << e.what();
        }
      }
    }
  }
  // Both outcomes must be common, or the mutations are too weak (or too
  // destructive) to probe the reader.
  EXPECT_GT(rejected, kKinds * kPerKind / 4);
  EXPECT_GT(loaded, kKinds * kPerKind / 4);
}

TEST(JournalReplay, FoldsCommittedAppliesIntoStableState) {
  const Fixture& f = fixture();
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan);
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  controller.apply_traffic_matrix(demand(f.map, 1));

  const auto intent = journal.replay();
  EXPECT_FALSE(intent.in_flight.has_value());
  EXPECT_EQ(intent.stable.applies_completed, 2u);
  EXPECT_EQ(intent.stable.active, controller.active_circuits());
  EXPECT_EQ(intent.stable.allocations.size(), intent.stable.active.size());
  EXPECT_EQ(intent.stable.expected_tuned, controller.snapshot().expected_tuned);
}

TEST(JournalReplay, DuctEventsFold) {
  const Fixture& f = fixture();
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan);
  controller.attach_journal(&journal);
  controller.fail_duct(2);
  controller.fail_duct(1);
  controller.restore_duct(2);
  const auto intent = journal.replay();
  EXPECT_EQ(intent.stable.failed_ducts, std::vector<graph::EdgeId>{1});
}

TEST(JournalReplay, ReconstructsInFlightApply) {
  // Build a journal whose tail is an open apply: one finished teardown, one
  // establish begun but not done -- exactly what a crash leaves behind.
  const Fixture& f = fixture();
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan);
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  const std::size_t committed = journal.size();

  // Append a synthetic open apply by hand (the crash tests exercise the
  // controller-written path; this pins replay's fold semantics).
  const auto snap = controller.snapshot();
  ASSERT_GE(snap.active.size(), 2u);
  const Circuit& torn = snap.active[0];
  const Circuit& half = snap.active[1];
  journal.append(BeginApplyRecord{snap.applies_completed, 0, {half}});
  journal.append(TeardownBeginRecord{torn});
  journal.append(TeardownDoneRecord{torn});
  journal.append(EstablishBeginRecord{half, snap.allocations[1]});

  const auto intent = journal.replay();
  ASSERT_TRUE(intent.in_flight.has_value());
  EXPECT_EQ(intent.in_flight->seq, snap.applies_completed);
  // Done-records mark the matching begin, they do not add ops.
  ASSERT_EQ(intent.in_flight->ops.size(), 2u);
  EXPECT_TRUE(intent.in_flight->ops[0].teardown);
  EXPECT_TRUE(intent.in_flight->ops[0].done);
  EXPECT_FALSE(intent.in_flight->ops[1].teardown);
  EXPECT_FALSE(intent.in_flight->ops[1].done);
  ASSERT_TRUE(intent.in_flight->ops[1].alloc.has_value());
  EXPECT_EQ(*intent.in_flight->ops[1].alloc, snap.allocations[1]);
  // The stable fold stops at the last terminal record.
  EXPECT_EQ(intent.stable.applies_completed, 1u);

  // Committing the apply folds it: active becomes the apply_end set.
  journal.append(ApplyEndRecord{snap.applies_completed, 0, {half},
                                snap.expected_tuned});
  const auto committed_intent = journal.replay();
  EXPECT_FALSE(committed_intent.in_flight.has_value());
  EXPECT_EQ(committed_intent.stable.applies_completed, 2u);
  ASSERT_EQ(committed_intent.stable.active.size(), 1u);
  EXPECT_EQ(committed_intent.stable.active[0], half);
  EXPECT_EQ(committed_intent.stable.allocations[0], snap.allocations[1]);
  (void)committed;
}

TEST(JournalReplay, MalformedLogsThrow) {
  const Circuit c;
  {
    IntentJournal j;  // apply_end with no begin_apply
    j.append(ApplyEndRecord{0, 0, {}, {}});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // establish_done without establish_begin
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(EstablishDoneRecord{c});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // nested begin_apply
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(BeginApplyRecord{1, 0, {}});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // checkpoint inside an open apply
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(CheckpointRecord{});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  // Resource indices outside the checkpoint's pool shape: negative ones
  // used to shrink the pools and index past them, large ones to grow them.
  ControllerCheckpoint one_duct;
  one_duct.free_fibers = {{1, 0}};
  one_duct.quarantined_fibers = {{}};
  one_duct.free_amps = {{}};
  one_duct.quarantined_amps = {{}};
  one_duct.free_add_drop = {{0, {0}}, {1, {0}}};
  const auto expect_replay_error = [](const IntentJournal& j) {
    try {
      (void)j.replay();
      FAIL() << "out-of-shape index accepted:\n" << j.to_text();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("journal replay:"),
                std::string::npos)
          << e.what();
    }
  };
  for (const graph::EdgeId duct : {-1, 1, 1 << 30}) {
    SCOPED_TRACE("duct " + std::to_string(duct));
    IntentJournal quarantine;
    quarantine.append(CheckpointRecord{one_duct});
    quarantine.append(QuarantineRecord{0, duct, 5});
    expect_replay_error(quarantine);

    IntentJournal apply;
    apply.append(CheckpointRecord{one_duct});
    apply.append(BeginApplyRecord{0, 0, {circuit_on_edge(duct)}});
    apply.append(
        EstablishBeginRecord{circuit_on_edge(duct), one_fiber_alloc()});
    apply.append(ApplyEndRecord{0, 0, {circuit_on_edge(duct)}, {}});
    expect_replay_error(apply);
  }
  {
    IntentJournal j;  // amplifier site outside the pools
    j.append(CheckpointRecord{one_duct});
    j.append(QuarantineRecord{2, -1, 0});
    expect_replay_error(j);
  }
  {
    IntentJournal j;  // add/drop pool at a DC the checkpoint does not know
    j.append(CheckpointRecord{one_duct});
    j.append(QuarantineRecord{1, 7, 0});
    expect_replay_error(j);
  }
  {
    // The in-shape control case folds cleanly.
    IntentJournal j;
    j.append(CheckpointRecord{one_duct});
    j.append(BeginApplyRecord{0, 0, {circuit_on_edge(0)}});
    j.append(EstablishBeginRecord{circuit_on_edge(0), one_fiber_alloc()});
    j.append(ApplyEndRecord{0, 0, {circuit_on_edge(0)}, {}});
    const auto intent = j.replay();
    EXPECT_EQ(intent.stable.free_fibers[0], std::vector<int>{1});
  }
}

// applies_completed saves as a signed 64-bit count: a fold that would carry
// it past 2^63 - 1 is rejected, or the checkpoint recovery writes next
// would read back as a torn tail and be dropped.
TEST(JournalReplay, AppliesCompletedPastInt64IsRejected) {
  for (const std::uint64_t start :
       {std::uint64_t{9223372036854775806ULL},
        std::uint64_t{9223372036854775807ULL}}) {
    ControllerCheckpoint cp;
    cp.applies_completed = start;
    IntentJournal j;
    j.append(CheckpointRecord{cp});
    j.append(BeginApplyRecord{start, 0, {}});
    j.append(ApplyEndRecord{start, 0, {}, {}});
    j = IntentJournal::from_text(j.to_text());
    if (start < 9223372036854775807ULL) {
      const auto intent = j.replay();
      IntentJournal next;
      next.append(CheckpointRecord{intent.stable});
      const IntentJournal reloaded = IntentJournal::from_text(next.to_text());
      EXPECT_FALSE(reloaded.dropped_torn_tail());
      EXPECT_EQ(reloaded.size(), 1u);
      continue;
    }
    try {
      (void)j.replay();
      FAIL() << "applies_completed overflow accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("journal replay:"))
          << e.what();
    }
  }
}

TEST(JournalReplay, QuarantineRecordsFold) {
  IntentJournal j;
  ControllerCheckpoint cp;
  cp.free_fibers = {{5, 4, 3, 2, 1, 0}};
  cp.quarantined_fibers = {{}};
  j.append(CheckpointRecord{cp});
  j.append(QuarantineRecord{0, 0, 4});   // duct 0, fiber 4
  j.append(QuarantineRecord{0, 0, 4});   // idempotent
  j.append(QuarantineRecord{3, 2, 7});   // tx 7 at DC 2
  const auto intent = j.replay();
  EXPECT_EQ(intent.stable.free_fibers[0], (std::vector<int>{5, 3, 2, 1, 0}));
  EXPECT_EQ(intent.stable.quarantined_fibers[0], std::vector<int>{4});
  EXPECT_TRUE(intent.stable.quarantined_txs.at(2).contains(7));
}

TEST(JournalCompact, DropsHistoryBeforeLastCheckpoint) {
  const Fixture& f = fixture();
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan);
  controller.set_checkpoint_interval(1);  // checkpoint after every apply
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  controller.apply_traffic_matrix(demand(f.map, 1));

  const auto before = journal.replay();
  const std::size_t before_size = journal.size();
  journal.compact();
  EXPECT_LT(journal.size(), before_size);
  ASSERT_FALSE(journal.empty());
  EXPECT_TRUE(std::holds_alternative<CheckpointRecord>(journal.entries()[0]));

  const auto after = journal.replay();
  EXPECT_EQ(after.stable.applies_completed, before.stable.applies_completed);
  EXPECT_EQ(after.stable.active, before.stable.active);
  EXPECT_EQ(after.stable.free_fibers, before.stable.free_fibers);
  EXPECT_EQ(after.stable.expected_tuned, before.stable.expected_tuned);

  // Compacted journal still round-trips through text.
  EXPECT_EQ(IntentJournal::from_text(journal.to_text()).to_text(),
            journal.to_text());
}

}  // namespace
}  // namespace iris::control
