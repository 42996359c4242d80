// Flat batch handlers for the fabric hot path: pipe delivery and queue
// service completion.
//
// Each body is a software pipeline over its dispatch run: while entry i does
// real work, earlier stages prefetch one link of the next-hop chain (packet
// -> route -> slot -> sink table entry -> sink object) for entries further
// ahead.  The stages read only `packet`, `route` and the handler's own
// class; delivery and dequeue go through the vtable like any other call.
// The bodies are only ever called through the function pointers registered
// below, so nothing is lost by keeping them out of line.  They live in net/,
// not sim/, so the event kernel stays ignorant of concrete component types;
// `install_flat_handlers` is declared in net/sim_env.h, whose constructor
// calls it.

#include "net/sim_env.h"

#include "net/pipe.h"
#include "net/queue.h"

namespace ndpsim {

void pipe::dispatch_run(event_source* const* srcs,
                        const std::uint64_t* payloads, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 6 < n) {
      const char* q = reinterpret_cast<const char*>(payloads[i + 6]);
      __builtin_prefetch(q);       // hot header: rt/next_hop/flow_id/size
      __builtin_prefetch(q + 64);  // cold tail: terminal receive reads it
    }
    if (i + 5 < n) {
      const packet* q = reinterpret_cast<const packet*>(payloads[i + 5]);
      __builtin_prefetch(q->rt);
    }
    if (i + 4 < n) {
      const packet* q = reinterpret_cast<const packet*>(payloads[i + 4]);
      q->rt->prefetch_hop_slot(q->next_hop);
    }
    if (i + 3 < n) {
      const packet* q = reinterpret_cast<const packet*>(payloads[i + 3]);
      q->rt->prefetch_hop_table(q->next_hop);
    }
    if (i + 2 < n) {
      const packet* q = reinterpret_cast<const packet*>(payloads[i + 2]);
      q->rt->prefetch_sink(q->next_hop);
    }
    packet& p = *reinterpret_cast<packet*>(payloads[i]);
    static_cast<pipe*>(srcs[i])->tele_deliver(p);
    send_to_next_hop(p);
  }
}

void queue_base::dispatch_run(event_source* const* srcs,
                              const std::uint64_t* /*payloads*/,
                              std::size_t n) {
  // The queue object, then the in-service packet's next-hop resolution (it
  // is about to be forwarded), one stage per future entry.
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 5 < n) {
      const char* q =
          reinterpret_cast<const char*>(static_cast<queue_base*>(srcs[i + 5]));
      __builtin_prefetch(q);
      __builtin_prefetch(q + 64);
      __builtin_prefetch(q + 128);  // concrete part: ring headers
    }
    if (i + 4 < n) {
      const queue_base* qb = static_cast<const queue_base*>(srcs[i + 4]);
      const char* p = reinterpret_cast<const char*>(qb->serving_);
      __builtin_prefetch(p);
      __builtin_prefetch(p + 64);
    }
    if (i + 3 < n) {
      const queue_base* qb = static_cast<const queue_base*>(srcs[i + 3]);
      const packet* p = qb->serving_;
      if (p != nullptr) __builtin_prefetch(p->rt);
    }
    if (i + 2 < n) {
      const queue_base* qb = static_cast<const queue_base*>(srcs[i + 2]);
      const packet* p = qb->serving_;
      if (p != nullptr && p->rt != nullptr) {
        p->rt->prefetch_hop_slot(p->next_hop);
        p->rt->prefetch_hop_table(p->next_hop);
      }
    }
    if (i + 1 < n) {
      const queue_base* qb = static_cast<const queue_base*>(srcs[i + 1]);
      const packet* p = qb->serving_;
      if (p != nullptr && p->rt != nullptr) {
        p->rt->prefetch_sink(p->next_hop);
      }
    }
    static_cast<queue_base*>(srcs[i])->service_complete();
  }
}

void install_flat_handlers(event_list& events) {
  events.set_flat_handler(dispatch_class::pipe_expiry, &pipe::dispatch_run);
  events.set_flat_handler(dispatch_class::queue_service,
                          &queue_base::dispatch_run);
}

}  // namespace ndpsim
