// The portable store decoder that PANOSNAP snapshots used through
// schema 9: the inverse of proxy::FlowStore::SerializeTo. Snapshots and
// spill segments now persist flow-store images (FlowStore::WriteImage),
// and production code never calls this. It exists so that the
// differential tests can decode one store both ways and require equal
// SerializeTo bytes.
//
// It is rebuilt on FlowStore's public API: each record becomes a
// proxy::Flow passed to Add, with the uid restored through the store's
// provenance tag and ordinal base and the redirect predecessor through
// its chain tails. So it re-parses every URL and interns every host,
// as the old decoder did, and shares no code with the image decoder.
#pragma once

#include <memory>

#include "proxy/flowstore.h"
#include "util/binio.h"

namespace panoptes::oracle {

// Decodes one SerializeTo stream from `in`, or returns nullptr on a
// tag other than v5's, a truncation or corruption. A compact store
// whose records hold headers or a body (a merge of stores with two
// policies) is not expressible through Add and is rejected too.
std::unique_ptr<proxy::FlowStore> DecodeSerializedStore(util::BinReader& in);

}  // namespace panoptes::oracle
