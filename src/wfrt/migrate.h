// Instance migration images (the payload of work stealing).
//
// A fleet steals whole *instances*, not single activities: activity-level
// runtime state is engine-owned, so the unit of migration is an instance
// family — a top-level instance plus its block-child subtree — serialized
// into a journal-replayable image. Engine::Detach produces the image and
// journals it (kInstanceDetached); Engine::Adopt journals it on the
// receiving side (kInstanceAdopted) and rebuilds the runtime state, so
// each engine's journal stays self-contained for crash recovery:
//
//   - the adopter's journal replays the kInstanceAdopted image and then
//     every later navigation record for the instance;
//   - the victim's journal replays the kInstanceDetached record, drops the
//     instance, and retains the image so a handoff that crashed before
//     reaching the adopter's journal can be re-adopted
//     (Engine::TakeDetachedImage) instead of being lost.
//
// The image format is line-oriented with EscapeQuoted payload fields —
// the same escaping discipline as the journal itself.

#ifndef EXOTICA_WFRT_MIGRATE_H_
#define EXOTICA_WFRT_MIGRATE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wfrt/instance.h"

namespace exotica::wfrt {

/// \brief A serialized instance family in flight between engines.
///
/// `images` holds one encoded image per family member, root first, parents
/// before children — the order Adopt materializes them in.
struct DetachedInstance {
  std::string root_id;
  std::vector<std::string> images;

  /// Single-string form carried in journal records (one escaped image per
  /// line). kSnapshot records carry the same form.
  std::string EncodePayload() const;
  /// Inverse of EncodePayload; Corruption on a bad escape or an empty
  /// payload.
  static Result<DetachedInstance> DecodePayload(const std::string& root_id,
                                                const std::string& payload);
  /// The line decoder under DecodePayload, for payloads that may list no
  /// image (a snapshot of an engine with nothing live). False on a bad
  /// escape.
  static bool DecodeImages(const std::string& payload,
                           std::vector<std::string>* images);
};

/// \brief Decoded form of one family member's image.
struct InstanceImage {
  std::string id;
  std::string process_name;
  int version = 1;
  std::string parent_instance;
  std::string parent_activity;

  bool finished = false;
  bool cancelled = false;
  bool failed = false;
  bool suspended = false;
  std::string failure_reason;
  int retries_used = 0;

  std::string input_image;   ///< Container::Serialize() of the instance input
  std::string output_image;

  struct ActivityImage {
    int state = 0;  ///< wf::ActivityState as int
    int attempt = 0;
    int failures = 0;
    std::string child_instance;
    std::vector<int8_t> incoming_eval;
    std::vector<int8_t> outgoing_eval;
    std::string input_image;
    std::string output_image;
  };
  /// Indexed by activity id (dense plan order).
  std::vector<ActivityImage> activities;
};

/// Serializes one instance's migratable state, rendering its block links
/// as ids and names through `slots`, the engine's slot table. The caller
/// is responsible for eligibility (no posted work items, no in-flight
/// async programs).
std::string EncodeInstanceImage(const ProcessInstance& inst,
                                const std::deque<ProcessInstance>& slots);

/// Inverse of EncodeInstanceImage. Corruption on malformed images.
Result<InstanceImage> DecodeInstanceImage(const std::string& image);

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_MIGRATE_H_
