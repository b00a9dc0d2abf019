#pragma once

#include <utility>
#include <vector>

#include "mapping/mapper.h"

namespace sunmap::mapping {

class EvalContext;
struct EvalScratch;

/// One pairwise slot exchange of a batched transactional move.
using SlotMove = std::pair<int, int>;

/// The transactional delta-evaluation protocol of the mapping search: one
/// begin -> speculative evaluate -> commit | rollback cycle that atomically
/// spans every piece of state a candidate swap touches —
///
///  * the mapping arrays (core_to_slot and its slot_to_core inverse),
///  * the scratch's incremental fplan::FloorplanSession (cache misses under
///    an open speculation solve through push_shapes, journaling what they
///    displace) together with the scratch's session shape key,
///  * the scratch's incremental route::RoutingSession (split-all
///    evaluations under an open speculation solve speculatively, journaling
///    displaced routes in session frames that rollback pops; minimum-path
///    re-routes from scratch and has nothing to undo), and
///  * the EvalContext memo caches, which being pure memoisation need no
///    undo: a speculative result cached during a rolled-back transaction is
///    still the exact value any later evaluation of that mapping computes.
///
/// begin_moves() applies an ordered batch of pairwise slot exchanges (a
/// single swap, a 2-opt chain, a segment rotation — any permutation
/// decomposed into transpositions); begin_swap() is the one-element sugar.
/// evaluate()/prunable() then see the speculative mapping through the
/// normal EvalContext entry points; commit() keeps it (dropping the
/// journals), rollback() restores the mapping (reverse-applying the batch —
/// each exchange is self-inverse), the floorplan-session state (in
/// O(dirty), via the session's undo journal — no re-derivation), the
/// session key, and the routing-session trace, bit-identically to the state
/// before begin_moves(). This is what lets annealing chains reject a
/// candidate without leaving either session dirty: the next candidate's
/// delta is measured against the incumbent, not against the rejected
/// speculation.
///
/// The transaction borrows everything it coordinates; the context, scratch,
/// and both mapping vectors must outlive it. One scratch carries at most
/// one open speculation (begin_moves() under an open one throws); concurrent
/// search workers each run their own transaction over their own scratch.
/// Destroying an open transaction rolls it back.
class DeltaTxn {
 public:
  DeltaTxn(const EvalContext& ctx, EvalScratch& scratch,
           std::vector<int>& core_to_slot, std::vector<int>& slot_to_core);
  ~DeltaTxn();

  DeltaTxn(const DeltaTxn&) = delete;
  DeltaTxn& operator=(const DeltaTxn&) = delete;

  /// Applies the pairwise swap of slots (a, b) to the mapping arrays and
  /// opens the speculation. Swapping two empty slots is the caller's no-op
  /// to skip; a swap involving one empty slot moves the occupying core.
  /// Sugar for begin_moves({{a, b}}).
  void begin_swap(int slot_a, int slot_b);

  /// Applies an ordered batch of pairwise slot exchanges atomically and
  /// opens the speculation: the mapping after begin_moves({{a,b},{b,c}}) is
  /// the 3-cycle a->b->c->a of the incumbent mapping's slot contents.
  /// rollback() reverse-applies the batch. Throws on an empty batch and
  /// under an already-open speculation.
  void begin_moves(const std::vector<SlotMove>& moves);

  /// Evaluates the current (speculative or committed) mapping through the
  /// context. Works outside a speculation too — e.g. for the initial
  /// mapping — where it behaves exactly like ctx.evaluate().
  [[nodiscard]] Evaluation evaluate(bool materialize = false) const;

  /// Phase-1 bound check of the current mapping against `incumbent`
  /// (EvalContext::prunable through this transaction's scratch).
  [[nodiscard]] bool prunable(const Evaluation& incumbent) const;

  /// Keeps the speculative batch: the mapping stays, the session journals
  /// are committed, and the transaction is ready for the next begin_moves().
  void commit();

  /// Undoes the speculative batch: mapping arrays, floorplan-session state,
  /// session key, and routing-session trace all return to their
  /// pre-begin_moves() values.
  void rollback();

  [[nodiscard]] bool open() const { return open_; }

 private:
  const EvalContext& ctx_;
  EvalScratch& scratch_;
  std::vector<int>& core_to_slot_;
  std::vector<int>& slot_to_core_;
  std::vector<SlotMove> moves_;
  bool open_ = false;
};

/// Applies the pairwise swap of slots (a, b) to a mapping and its inverse in
/// place. Self-inverse: applying it twice restores both arrays — the
/// primitive DeltaTxn's begin/rollback are built on.
void apply_slot_swap(int a, int b, std::vector<int>& core_to_slot,
                     std::vector<int>& slot_to_core);

}  // namespace sunmap::mapping
