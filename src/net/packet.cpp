#include "net/packet.h"

#include "net/route.h"

namespace ndpsim {

void send_to_next_hop(packet& p) {
  NDPSIM_ASSERT_MSG(p.rt != nullptr, "packet has no route");
  NDPSIM_ASSERT_MSG(p.next_hop < p.rt->size(), "packet ran off its route");
  p.rt->at(p.next_hop++).receive(p);
}

}  // namespace ndpsim
