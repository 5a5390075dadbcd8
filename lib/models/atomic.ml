(* Atomic transactions (section 3.1.1).

   The O++ compiler wraps a `trans { ... }` block into a function and
   emits

       if ((t = initiate(f)) != NULL)
         if (begin(t))
           commit(t);

   [run] is that translation as a combinator.  The body aborts the
   transaction either by raising or by calling [Engine.abort] on
   itself; both surface as [`Aborted]. *)

module E = Asset_core.Engine

type result = [ `Committed | `Aborted | `Initiate_failed ]

let run db body : result =
  let t = E.initiate db body in
  if Asset_util.Id.Tid.is_null t then `Initiate_failed
  else if not (E.begin_ db t) then `Initiate_failed
  else if E.commit db t then `Committed
  else `Aborted

let committed db body = run db body = `Committed
